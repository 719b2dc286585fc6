//! The serving stack, plain and with a timing shim between every pair of
//! layers.

use std::sync::Arc;

use qmx_core::{DelayOptimal, Detector, LockSpace, Protocol, Reliable, SiteId};
use qmx_runtime::stack::{build_stack, RingMajoritySource, ServeMsg, ServeStack, StackConfig};

use crate::trace::{Layer, Shim};

/// `Detector<Reliable<LockSpace<DelayOptimal>>>` with a shim around every
/// layer. Its wire message type is the plain stack's.
pub type TracedStack = Shim<Detector<Shim<Reliable<Shim<LockSpace<Shim<DelayOptimal>>>>>>>;

/// A serving stack the benchmark can build per site.
pub trait Stack: Protocol<Msg = ServeMsg> + Sized {
    /// Builds `site`'s stack.
    fn build(site: SiteId, cfg: &StackConfig) -> Self;
    /// Resource shards the lock space has materialised.
    fn shards(&self) -> usize;
}

impl Stack for ServeStack {
    fn build(site: SiteId, cfg: &StackConfig) -> Self {
        build_stack(site, cfg)
    }

    fn shards(&self) -> usize {
        self.inner().inner().shard_count()
    }
}

impl Stack for TracedStack {
    /// The same composition `build_stack` makes, through the same public
    /// constructors, with shims in between.
    fn build(site: SiteId, cfg: &StackConfig) -> Self {
        let quorum = cfg.quorum.clone();
        let algo = cfg.algo.clone();
        let n = cfg.sites.len() as u32;
        let reconstruct = cfg.majority_reconstruct;
        let space = LockSpace::new(
            site,
            Arc::new(move |_rid| {
                let shard = if reconstruct {
                    DelayOptimal::with_quorum_source(
                        site,
                        algo.clone(),
                        Box::new(RingMajoritySource::new(n)),
                    )
                } else {
                    DelayOptimal::new(site, quorum.clone(), algo.clone())
                };
                Shim::new(Layer::DelayOptimal, shard)
            }),
        );
        let peers: Vec<SiteId> = cfg.sites.iter().copied().filter(|&s| s != site).collect();
        let reliable = Reliable::new(Shim::new(Layer::LockSpace, space), cfg.transport);
        Shim::new(
            Layer::Detector,
            Detector::new(Shim::new(Layer::Reliable, reliable), peers, cfg.detector),
        )
    }

    fn shards(&self) -> usize {
        self.inner().inner().inner().inner().inner().shard_count()
    }
}
