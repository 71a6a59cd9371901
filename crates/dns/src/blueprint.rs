//! Node blueprints: the immutable recipe for a host's behaviour.
//!
//! The Topology/Runtime split in `bcd-netsim` keeps node *state* out of the
//! shared world, but something still has to describe how each host behaves
//! so that every shard runtime can construct identical fresh nodes. That is
//! a [`NodeBlueprint`]: a plain-data description (`Send + Sync`, shareable
//! behind the same `Arc` as the topology) that [`NodeBlueprint::instantiate`]
//! turns into a live [`Node`]. A spawned runtime calls it on a host's first
//! event (`bcd_netsim::Runtime::lazy`), so only the hosts a run reaches are
//! ever instantiated. Every blueprint kind is passive until its first
//! packet, which is what makes building it late indistinguishable from
//! building it up front.
//!
//! The one thing a blueprint cannot carry is the query log — [`SharedLog`]
//! is an `Rc<RefCell<..>>` confined to its runtime's thread. An `Auth`
//! blueprint therefore only says *whether* it logs, and each runtime passes
//! its own freshly created log at instantiation time.

use crate::auth::{AuthServer, AuthServerConfig};
use crate::interceptor::Interceptor;
use crate::log::SharedLog;
use crate::resolver::{RecursiveResolver, ResolverConfig};
use crate::zone::Zone;
use bcd_netsim::Node;
use std::net::IpAddr;

/// A host behaviour recipe. One per topology host, in host-id order.
#[derive(Debug, Clone)]
pub enum NodeBlueprint {
    /// An authoritative server: its zones, and whether it appends the
    /// queries it answers to the runtime's query log.
    Auth { zones: Vec<Zone>, logged: bool },
    /// A recursive resolver (fully described by its config).
    Resolver(ResolverConfig),
    /// A transparent DNS middlebox proxying to `upstream`.
    Interceptor { upstream: IpAddr },
}

impl NodeBlueprint {
    /// Construct a fresh node from this blueprint. `log` is the runtime's
    /// query log; only a logged `Auth` blueprint writes to it.
    pub fn instantiate(&self, log: &SharedLog) -> Box<dyn Node> {
        match self {
            NodeBlueprint::Auth { zones, logged } => Box::new(AuthServer::new(AuthServerConfig {
                zones: zones.clone(),
                log: logged.then(|| log.clone()),
            })),
            NodeBlueprint::Resolver(cfg) => Box::new(RecursiveResolver::new(cfg.clone())),
            NodeBlueprint::Interceptor { upstream } => Box::new(Interceptor::new(*upstream)),
        }
    }
}
