//! The serving tier's *only* doorway to the model: a handle over the
//! RCU-style generation cell from `cfsf_core::refresh`.
//!
//! Every request path in this crate loads the model through a
//! [`ModelHandle`] — never by holding a raw model reference across
//! requests. That is what makes zero-pause refresh work: a background
//! rebuild publishes a new generation into the cell, the next request
//! loads it, and requests already in flight finish on the generation
//! they started with (their `Arc` keeps it alive). The crate's
//! `clippy.toml` disallows the concrete model type everywhere else, so
//! this file is the only one in `cf-serve` allowed to name it.

#![allow(
    clippy::disallowed_types,
    reason = "the doorway to the generation cell names the concrete model type"
)]

use std::sync::Arc;

use cfsf_core::{Cfsf, GenCell};

/// A cloneable handle to the model generation currently serving.
///
/// Two constructions:
/// - [`ModelHandle::fixed`] wraps a plain fitted model — generation 0
///   forever; the classic static-shard deployment.
/// - [`ModelHandle::from_cell`] shares a live [`GenCell`] (typically
///   [`cfsf_core::SelfHealingCfsf::cell`]) so a background refresh
///   worker swaps generations under the server without a restart.
#[derive(Clone)]
pub struct ModelHandle {
    cell: Arc<GenCell<Cfsf>>,
}

impl ModelHandle {
    /// A handle that always serves `model` (generation 0).
    pub fn fixed(model: Arc<Cfsf>) -> Self {
        Self {
            cell: Arc::new(GenCell::new(model)),
        }
    }

    /// A handle sharing a live generation cell — publishes through the
    /// cell become visible to this handle's next [`ModelHandle::load`].
    pub fn from_cell(cell: Arc<GenCell<Cfsf>>) -> Self {
        Self { cell }
    }

    /// The model generation currently serving. The returned `Arc` pins
    /// that generation for as long as the caller holds it, so one
    /// request always computes against one consistent model even while
    /// a refresh publishes mid-request.
    pub fn load(&self) -> Arc<Cfsf> {
        self.cell.load()
    }

    /// [`ModelHandle::load`] plus the generation id the snapshot belongs
    /// to — the pair is read under one guard, never torn.
    pub fn load_with_generation(&self) -> (Arc<Cfsf>, u64) {
        self.cell.load_with_generation()
    }

    /// The current generation id (monitoring only; pair reads go through
    /// [`ModelHandle::load_with_generation`]).
    pub fn generation(&self) -> u64 {
        self.cell.generation()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfsf_core::CfsfConfig;

    fn fitted() -> Arc<Cfsf> {
        let d = cf_data::SyntheticConfig::small().generate();
        Arc::new(Cfsf::fit(&d.matrix, CfsfConfig::small()).unwrap())
    }

    #[test]
    fn fixed_handle_serves_generation_zero() {
        let model = fitted();
        let handle = ModelHandle::fixed(Arc::clone(&model));
        let (loaded, generation) = handle.load_with_generation();
        assert_eq!(generation, 0);
        assert!(Arc::ptr_eq(&loaded, &model));
    }

    #[test]
    fn cell_handle_observes_published_generations() {
        let a = fitted();
        let cell = Arc::new(GenCell::new(Arc::clone(&a)));
        let handle = ModelHandle::from_cell(Arc::clone(&cell));
        assert_eq!(handle.generation(), 0);

        let b = fitted();
        cell.publish(Arc::clone(&b));
        let (loaded, generation) = handle.load_with_generation();
        assert_eq!(generation, 1);
        assert!(Arc::ptr_eq(&loaded, &b));
        // The old generation stays alive for holders of its Arc.
        assert!(Arc::strong_count(&a) >= 1);
    }
}
