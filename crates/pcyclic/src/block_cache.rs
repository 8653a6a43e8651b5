//! Dirty-slice-tracking cache of dense `B_ℓ^σ` blocks.
//!
//! A DQMC stabilization rebuilds the Green's function from the full set of
//! `L` propagator blocks, but between two stabilizations only the slices
//! the sweep actually visited (at most `stabilize_every` of them) can have
//! changed HS fields. The [`BlockCache`] keeps one spin's blocks alive
//! across refreshes and rebuilds only the dirty slices, turning the per-
//! refresh block assembly from `O(L·N²)` `exp`-and-scale work into
//! `O(window·N²)`.
//!
//! The cache is deliberately dumb about *what* changed: the sweep marks
//! whole slices dirty (flip granularity is a single site, but a slice
//! rebuild is two cheap diagonal scalings, so finer tracking buys nothing).
//! Correctness is bitwise: a rebuilt block goes through the exact same
//! [`BlockBuilder::block`] call a cold build would use.

use fsi_dense::Matrix;

use crate::hubbard::{BlockBuilder, HsField, Spin};

/// Per-spin cache of the `L` dense blocks `B_0^σ … B_{L−1}^σ`.
#[derive(Clone, Debug, Default)]
pub struct BlockCache {
    blocks: Vec<Matrix>,
}

impl BlockCache {
    /// An empty cache; the first [`Self::sync`] performs a cold build.
    pub fn new() -> Self {
        BlockCache { blocks: Vec::new() }
    }

    /// Brings the cache up to date with `field`, rebuilding every slice
    /// marked in `dirty` (plus everything, on a cold or shape-mismatched
    /// cache). Returns the number of blocks rebuilt.
    ///
    /// # Panics
    /// Panics unless `dirty.len() == field.slices()`.
    pub fn sync(
        &mut self,
        builder: &BlockBuilder,
        field: &HsField,
        spin: Spin,
        dirty: &[bool],
    ) -> usize {
        static REBUILT: fsi_runtime::metrics::LazyCounter =
            fsi_runtime::metrics::LazyCounter::new("pcyclic.block_cache.rebuilt");
        static REUSED: fsi_runtime::metrics::LazyCounter =
            fsi_runtime::metrics::LazyCounter::new("pcyclic.block_cache.reused");
        let l = field.slices();
        assert_eq!(dirty.len(), l, "dirty mask length mismatch");
        if self.blocks.len() != l {
            self.blocks = builder.all_blocks(field, spin);
            REBUILT.add(l as u64);
            return l;
        }
        let mut rebuilt = 0;
        for (k, is_dirty) in dirty.iter().enumerate() {
            if *is_dirty {
                self.blocks[k] = builder.block(field, k, spin);
                rebuilt += 1;
            }
        }
        REBUILT.add(rebuilt as u64);
        REUSED.add((l - rebuilt) as u64);
        rebuilt
    }

    /// The cached blocks, slice-major (`B_0 … B_{L−1}`).
    pub fn blocks(&self) -> &[Matrix] {
        &self.blocks
    }

    /// Drops the cached blocks; the next [`Self::sync`] is cold.
    pub fn invalidate(&mut self) {
        self.blocks.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice::SquareLattice;
    use crate::HubbardParams;
    use rand::SeedableRng;

    fn setup() -> (BlockBuilder, HsField) {
        let builder =
            BlockBuilder::new(SquareLattice::square(3), HubbardParams::paper_validation(6));
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(21);
        let field = HsField::random(6, 9, &mut rng);
        (builder, field)
    }

    #[test]
    fn cold_sync_builds_everything() {
        let (builder, field) = setup();
        let mut cache = BlockCache::new();
        let rebuilt = cache.sync(&builder, &field, Spin::Up, &[false; 6]);
        assert_eq!(rebuilt, 6);
        let fresh = builder.all_blocks(&field, Spin::Up);
        for (a, b) in cache.blocks().iter().zip(&fresh) {
            assert_eq!(a.as_slice(), b.as_slice(), "cold build must be bitwise");
        }
    }

    #[test]
    fn warm_sync_rebuilds_only_dirty_slices() {
        let (builder, mut field) = setup();
        let mut cache = BlockCache::new();
        cache.sync(&builder, &field, Spin::Down, &[false; 6]);
        // Flip sites on slices 1 and 4 and mark them dirty.
        field.flip(1, 0);
        field.flip(4, 3);
        let mut dirty = [false; 6];
        dirty[1] = true;
        dirty[4] = true;
        let rebuilt = cache.sync(&builder, &field, Spin::Down, &dirty);
        assert_eq!(rebuilt, 2);
        let fresh = builder.all_blocks(&field, Spin::Down);
        for (k, (a, b)) in cache.blocks().iter().zip(&fresh).enumerate() {
            assert_eq!(a.as_slice(), b.as_slice(), "slice {k} differs from cold");
        }
    }

    #[test]
    fn invalidate_forces_full_rebuild() {
        let (builder, field) = setup();
        let mut cache = BlockCache::new();
        cache.sync(&builder, &field, Spin::Up, &[false; 6]);
        cache.invalidate();
        let rebuilt = cache.sync(&builder, &field, Spin::Up, &[false; 6]);
        assert_eq!(rebuilt, 6);
    }
}
