//! # bcd-worldgen — the seeded synthetic Internet
//!
//! Builds the world the experiment measures: autonomous systems with
//! announced IPv4/IPv6 prefixes and border policies, recursive resolvers
//! with realistic behaviour mixes, the experiment's own DNS estate (root,
//! `org`, `dns-lab.org` + follow-up zones), public DNS services,
//! middleboxes, and the DITL-style root-trace target lists.
//!
//! Every distribution is calibrated to the paper's published marginals
//! (see `bcd-geo` for the per-country numbers and [`config::WorldConfig`]
//! for the behaviour mixes); every sample comes from one seeded RNG, so a
//! given `(seed, config)` always produces the identical world.

pub mod addressing;
pub mod build;
pub mod config;
pub mod ditl;
pub mod hitlist;
pub mod profile;

pub use build::{AuthEstate, ScannerSlot, World, WorldRuntime};
pub use config::WorldConfig;
pub use ditl::DitlRecord;
pub use hitlist::Hitlist;
pub use profile::{AclKind, Port2018, PortClass, ResolverMeta};
