//! Error type for the dense kernels.
//!
//! Dimension mismatches are programming errors and panic (BLAS `XERBLA`
//! style); data-dependent failures — singular pivots — are reported through
//! [`DenseError`] so callers like the DQMC stabilizer can react.

use std::fmt;

/// Result alias for dense operations.
pub type Result<T> = std::result::Result<T, DenseError>;

/// Data-dependent failure of a dense factorization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DenseError {
    /// An exactly zero pivot was encountered during LU elimination at the
    /// given column: the matrix is singular to working precision.
    Singular {
        /// Column index of the failed pivot.
        column: usize,
    },
}

impl fmt::Display for DenseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DenseError::Singular { column } => {
                write!(f, "matrix is singular (zero pivot at column {column})")
            }
        }
    }
}

impl std::error::Error for DenseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = DenseError::Singular { column: 3 };
        assert!(e.to_string().contains("column 3"));
    }
}
