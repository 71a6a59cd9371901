//! Node blueprints: the immutable recipe for a host's behaviour.
//!
//! The Topology/Runtime split in `bcd-netsim` keeps node *state* out of the
//! shared world, but something still has to describe how each host behaves
//! so that every shard runtime can construct identical fresh nodes. That is
//! a [`NodeBlueprint`]: a plain-data description (`Send + Sync`, shareable
//! behind the same `Arc` as the topology) that [`NodeBlueprint::instantiate`]
//! turns into a live [`Node`].
//!
//! The one thing a blueprint cannot carry is the query log — [`SharedLog`]
//! is an `Rc<RefCell<..>>` confined to its runtime's thread. Blueprints
//! therefore store a *log slot index*, and each runtime passes its own
//! freshly created logs at instantiation time. Slot assignments are the
//! world builder's contract (in `bcd-worldgen`: slot 0 = experiment log,
//! slot 1 = root/DITL log).

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
    /// An authoritative server: zones, which log slot it writes to, and
    /// whether it logs at all.
    Auth {
        zones: Vec<Zone>,
        /// Index into the runtime's log-slot table.
        log: usize,
        log_queries: bool,
    },
    /// A recursive resolver (fully described by its config).
    Resolver(ResolverConfig),
    /// A transparent DNS middlebox proxying to `upstream`.
    Interceptor { upstream: IpAddr },
    /// A host that silently accepts everything (placeholder / counter).
    Sink,
}

impl NodeBlueprint {
    /// Construct a fresh node from this blueprint. `logs` is the runtime's
    /// log-slot table; only `Auth` blueprints consult it.
    pub fn instantiate(&self, logs: &[SharedLog]) -> Box<dyn Node> {
        match self {
            NodeBlueprint::Auth {
                zones,
                log,
                log_queries,
            } => Box::new(AuthServer::new(AuthServerConfig {
                zones: zones.clone(),
                log: logs[*log].clone(),
                log_queries: *log_queries,
            })),
            NodeBlueprint::Resolver(cfg) => Box::new(RecursiveResolver::new(cfg.clone())),
            NodeBlueprint::Interceptor { upstream } => Box::new(Interceptor::new(*upstream)),
            NodeBlueprint::Sink => Box::new(bcd_netsim::node::SinkNode::default()),
        }
    }
}
