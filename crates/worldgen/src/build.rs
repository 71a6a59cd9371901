//! World construction: turn a [`WorldConfig`] into an immutable, shareable
//! [`Topology`] + node-blueprint table plus the ground-truth registry and
//! DITL traces. Engines are spawned from the built [`World`] with
//! [`World::spawn`] — one world build can back any number of concurrent
//! shard runtimes.

use crate::addressing::{carve_v4_24s, carve_v6_64s, AddressAllocator};
use crate::config::{
    WorldConfig, DS_FILTER_FRACTION_V4, ENSURE_RESPONSIVE_PROB, FORWARDER_OPEN_FRACTION,
    FORWARD_FRACTION_V4, FORWARD_FRACTION_V6, LOOPBACK_FILTER_FRACTION,
    LOOPBACK_FILTER_FRACTION_V6, MAX_EVENTS, MIDDLEBOX_AS_FRACTION, OSAV_FRACTION,
    PRIVATE_FILTER_FRACTION, V4_ACCEPT_MULTIPLIER, V6_ACCEPT_MULTIPLIER, V6_AS_FRACTION,
};
use crate::ditl::{self, DitlRecord};
use crate::hitlist::Hitlist;
use crate::profile::{
    sample_identity_for_class, sample_port_2018, sample_port_identity, AclKind, Port2018,
    PortClass, ResolverMeta,
};
use bcd_dns::log::shared_log;
use bcd_dns::{Acl, NodeBlueprint, ResolverConfig, SharedLog, Zone, ZoneMode};
use bcd_dnswire::Name;
use bcd_geo::{sample_country, Country, CountryProfile, GeoDb, COUNTRIES};
use bcd_netsim::{
    stream_seed, Asn, BorderPolicy, FaultDomain, FaultSchedule, HostConfig, HostId, NetworkConfig,
    Prefix, Runtime, StackPolicy, Topology, TopologyBuilder,
};
use bcd_osmodel::{DnsSoftware, Os};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashSet;
use std::net::IpAddr;
use std::sync::Arc;

/// Where the experiment's own DNS estate lives.
#[derive(Debug, Clone)]
pub struct AuthEstate {
    /// Experiment zone apex (`dns-lab.org`).
    pub apex: Name,
    /// IPv4-only follow-up zone apex (`f4.dns-lab.org`).
    pub f4_apex: Name,
    /// IPv6-only follow-up zone apex (`f6.dns-lab.org`).
    pub f6_apex: Name,
    /// TC=1 zone apex (`tcp.dns-lab.org`).
    pub tcp_apex: Name,
    /// Root server addresses (v4, v6) — every resolver's hints.
    pub root_v4: IpAddr,
    pub root_v6: IpAddr,
    /// Main experiment-zone server addresses.
    pub lab_v4: IpAddr,
    pub lab_v6: IpAddr,
}

/// The reserved attachment point for the scanner (bcd-core adds the node).
#[derive(Debug, Clone)]
pub struct ScannerSlot {
    pub asn: Asn,
    pub v4: IpAddr,
    pub v6: IpAddr,
}

/// A fully built world: the immutable topology, the behaviour blueprint for
/// every host, and the ground-truth registry.
///
/// A `World` holds no engine state and no logs — it is `Send + Sync` and is
/// shared across shard threads behind one `Arc`. Each thread turns it into a
/// live engine with [`World::spawn`].
pub struct World {
    /// The immutable network world (ASes, routes, host table), shared by
    /// every runtime spawned from this world.
    pub topo: Arc<Topology>,
    /// Behaviour recipe per topology host, in host-id order.
    pub blueprints: Vec<NodeBlueprint>,
    pub cfg: WorldConfig,
    pub geo: GeoDb,
    /// Ground truth for every target address.
    pub resolvers: Vec<ResolverMeta>,
    /// Target address → index into `resolvers`, sorted by address for
    /// binary search. A plain sorted vector (not a hash map): iteration
    /// order is deterministic by construction and the index costs 24
    /// bytes/target instead of a hash table's ~48.
    pub by_addr: Vec<(IpAddr, u32)>,
    pub scanner: ScannerSlot,
    pub auth: AuthEstate,
    /// Public DNS service addresses (v4 then v6 per service).
    pub public_dns_v4: Vec<IpAddr>,
    pub public_dns_v6: Vec<IpAddr>,
    /// The synthesized root traces (§3.1's target source; §5.2.2's 2018
    /// comparison trace). Empty when `cfg.materialize_ditl` is off — the
    /// 2019 trace is then streamed into `ditl_candidates` instead.
    pub ditl2019: Vec<DitlRecord>,
    pub ditl2018: Vec<DitlRecord>,
    /// Deduplicated, sorted 2019 source addresses, produced by the
    /// streaming pipeline when `cfg.materialize_ditl` is off. Target
    /// extraction consumes either this or `ditl2019` — the result is
    /// identical (same RNG stream, and extraction dedupes anyway).
    pub ditl_candidates: Vec<IpAddr>,
    /// ASNs of measured ASes (excludes infrastructure/scanner/public DNS).
    pub measured_asns: Vec<Asn>,
    /// Host ids of the experiment-zone servers `(main, f4, f6)` — used by
    /// the §3.6.4 wildcard ablation.
    pub experiment_hosts: (usize, usize, usize),
    /// The IPv6 hitlist (§3.2's source heuristic): every /64 hosting an
    /// IPv6 target, grouped by origin AS so a target's preferred /64s are
    /// one lookup away.
    pub v6_hitlist: Hitlist,
    /// Compiled chaos schedule (from `cfg.chaos`), armed in every spawned
    /// runtime. Compiled once here so all shards share the identical
    /// schedule.
    pub faults: Option<Arc<FaultSchedule>>,
}

/// A live engine spawned from a [`World`]: a [`Runtime`] over the shared
/// topology plus this runtime's own (thread-local) query log.
pub struct WorldRuntime {
    pub net: Runtime,
    /// Query log of the experiment estate (`dns-lab.org` + follow-up zones).
    pub log: SharedLog,
}

impl World {
    /// Ground truth for a target address.
    pub fn meta_of(&self, addr: IpAddr) -> Option<&ResolverMeta> {
        self.by_addr
            .binary_search_by(|&(a, _)| a.cmp(&addr))
            .ok()
            .map(|i| &self.resolvers[self.by_addr[i].1 as usize])
    }

    /// The AS info for an ASN, if registered.
    pub fn as_info(&self, asn: Asn) -> Option<&bcd_netsim::AsInfo> {
        self.topo.as_info(asn)
    }

    /// True ground-truth answer: does this AS lack DSAV?
    pub fn truly_lacks_dsav(&self, asn: Asn) -> bool {
        self.topo
            .as_info(asn)
            .map(|a| !a.policy.dsav)
            .unwrap_or(false)
    }

    /// Instantiate a live engine over the shared topology: a fresh query log,
    /// fresh nodes from the blueprints, fresh per-host RNG streams. Nodes are
    /// constructed in host-id order from the same configs `build` produced,
    /// so every spawn behaves exactly like a freshly built world — without
    /// paying for world generation again.
    pub fn spawn(&self) -> WorldRuntime {
        self.spawn_for(None)
    }

    /// Like [`spawn`](Self::spawn), but with `Some(owned)` only hosts in
    /// the given measured ASes (plus the infrastructure, public-DNS and
    /// scanner ASes every shard talks to) get their real node; everything
    /// else becomes a [`Sink`](NodeBlueprint::Sink) placeholder at the
    /// same host id.
    ///
    /// Sound for AS-sharded surveys because a shard only ever sends
    /// traffic to its own destination ASes, and resolvers in non-owned
    /// ASes are passive until probed (a resolver resolves only on a client
    /// query; it has no self-initiated traffic) — a sink there
    /// receives nothing it was supposed to answer. Per-host RNG streams
    /// are keyed by host id, so the hosts that *are* instantiated behave
    /// byte-identically to a full spawn. At Internet scale this is what
    /// makes S-way sharding ~S-times lighter per shard: each runtime
    /// holds ~1/S of the million-host node table.
    pub fn spawn_for(&self, owned: Option<&HashSet<Asn>>) -> WorldRuntime {
        let log = shared_log();
        let sink = NodeBlueprint::Sink;
        let nodes = self
            .blueprints
            .iter()
            .enumerate()
            .map(|(id, b)| {
                let live = match owned {
                    None => true,
                    Some(set) => {
                        let asn = self.topo.host_asn(id);
                        asn == INFRA_ASN
                            || asn == PUBLIC_DNS_ASN
                            || asn == SCANNER_ASN
                            || set.contains(&asn)
                    }
                };
                if live {
                    b.instantiate(&log)
                } else {
                    sink.instantiate(&log)
                }
            })
            .collect();
        let mut net = Runtime::new(Arc::clone(&self.topo), nodes);
        net.set_faults(self.faults.clone());
        WorldRuntime { net, log }
    }
}

const INFRA_ASN: Asn = Asn(64_500);
const PUBLIC_DNS_ASN: Asn = Asn(64_501);
const SCANNER_ASN: Asn = Asn(64_502);
const FIRST_MEASURED_ASN: u32 = 1_000;
/// Stream id for the public DNS hosts' identity-draw salts (see
/// [`ResolverConfig::identity_draw_salt`]).
const PUBLIC_DNS_SALT_STREAM: u64 = 0x5055_424C_4943_4453;

struct AsPlan {
    asn: Asn,
    country: Country,
    profile: &'static CountryProfile,
    v4_prefixes: Vec<Prefix>,
    v6_prefixes: Vec<Prefix>,
    n_targets_v4: usize,
    n_targets_v6: usize,
    no_dsav: bool,
    /// AS-wide ACL prefix list (v4 + v6), built once and `Arc`-shared by
    /// every resolver in this AS whose ACL is AS-wide.
    as_wide: Arc<[Prefix]>,
    /// `as_wide` plus the private/ULA ranges, likewise shared.
    as_wide_private: Arc<[Prefix]>,
}

/// Resolver-config storage shared by every resolver in the world: one
/// allocation per world, one refcount bump per resolver. Without this an
/// Internet-scale build clones the root-hint list and ACL prefix vectors
/// about a million times.
struct SharedCfg {
    root_hints: Arc<[IpAddr]>,
    no_cuts: Arc<[(Name, Vec<IpAddr>)]>,
    no_prefixes: Arc<[Prefix]>,
    private_prefixes: Arc<[Prefix]>,
    localhost_prefixes: Arc<[Prefix]>,
}

/// The private/ULA ranges used by ACL materialization.
fn private_ranges() -> [Prefix; 3] {
    [
        "192.168.0.0/16".parse().unwrap(),
        "10.0.0.0/8".parse().unwrap(),
        "fc00::/7".parse().unwrap(),
    ]
}

/// Build the world.
pub fn build(cfg: WorldConfig) -> World {
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    // Densified worlds pack AS address plans into shared /16s — 62k ASes
    // exceed the /16 count but not the /24 count. The scale-1.0 plan keeps
    // the historical fresh-/16-per-AS layout byte-for-byte.
    let mut alloc = if cfg.address_density < 1.0 {
        AddressAllocator::packed()
    } else {
        AddressAllocator::new()
    };
    let mut net = Topology::builder(NetworkConfig {
        seed: cfg.seed.wrapping_add(1),
        max_events: MAX_EVENTS,
        sched: cfg.sched,
        ..NetworkConfig::default()
    });
    let mut geo = GeoDb::new();

    // ---------------- infrastructure ----------------
    net.add_simple_as(INFRA_ASN, BorderPolicy::strict());
    let infra_v4 = alloc.next_v4_16();
    let (infra_v6, _) = carve_v6_64s(&mut alloc, 1);
    net.announce(infra_v4, INFRA_ASN);
    net.announce(infra_v6, INFRA_ASN);
    let v4 = |i: u128| infra_v4.nth(i).unwrap();
    let v6 = |i: u128| infra_v6.nth(i).unwrap();
    let (root_v4, root_v6) = (v4(4), v6(4));
    let (org_v4, org_v6) = (v4(5), v6(5));
    let (lab_v4, lab_v6) = (v4(10), v6(10));
    let f4_addr = v4(11);
    let f6_addr = v6(11);
    let (tcp_v4, tcp_v6) = (v4(12), v6(12));

    let apex: Name = "dns-lab.org".parse().unwrap();
    let f4_apex: Name = "f4.dns-lab.org".parse().unwrap();
    let f6_apex: Name = "f6.dns-lab.org".parse().unwrap();
    let tcp_apex: Name = "tcp.dns-lab.org".parse().unwrap();
    let org: Name = "org".parse().unwrap();

    // Root servers. The DITL traces are synthesized (`crate::ditl`), so the
    // simulated roots keep no log.
    let root_zone = Zone::new(Name::root(), ZoneMode::Static(vec![])).delegate(
        org.clone(),
        vec![("a0.org".parse().unwrap(), vec![org_v4, org_v6])],
    );
    net.add_host(
        HostConfig {
            addrs: vec![root_v4, root_v6],
            asn: INFRA_ASN,
            stack: StackPolicy::strict(),
        },
        NodeBlueprint::Auth {
            zones: vec![root_zone],
            logged: false,
        },
    );

    // org TLD.
    let org_zone = Zone::new(org, ZoneMode::Static(vec![])).delegate(
        apex.clone(),
        vec![("ns1.dns-lab.org".parse().unwrap(), vec![lab_v4, lab_v6])],
    );
    net.add_host(
        HostConfig {
            addrs: vec![org_v4, org_v6],
            asn: INFRA_ASN,
            stack: StackPolicy::strict(),
        },
        NodeBlueprint::Auth {
            zones: vec![org_zone],
            logged: false,
        },
    );

    // Experiment zone with the three follow-up delegations.
    let lab_zone = Zone::new(apex.clone(), ZoneMode::Nxdomain)
        .delegate(
            f4_apex.clone(),
            vec![("ns.f4.dns-lab.org".parse().unwrap(), vec![f4_addr])],
        )
        .delegate(
            f6_apex.clone(),
            vec![("ns.f6.dns-lab.org".parse().unwrap(), vec![f6_addr])],
        )
        .delegate(
            tcp_apex.clone(),
            vec![("ns.tcp.dns-lab.org".parse().unwrap(), vec![tcp_v4, tcp_v6])],
        );
    let lab_host = net.add_host(
        HostConfig {
            addrs: vec![lab_v4, lab_v6],
            asn: INFRA_ASN,
            stack: StackPolicy::strict(),
        },
        NodeBlueprint::Auth {
            zones: vec![lab_zone],
            logged: true,
        },
    );
    // f4: IPv4-only server; f6: IPv6-only; tcp: dual-stack TC zone.
    let mut follow_hosts = Vec::new();
    for (addrs, zone) in [
        (
            vec![f4_addr],
            Zone::new(f4_apex.clone(), ZoneMode::Nxdomain),
        ),
        (
            vec![f6_addr],
            Zone::new(f6_apex.clone(), ZoneMode::Nxdomain),
        ),
        (
            vec![tcp_v4, tcp_v6],
            Zone::new(tcp_apex.clone(), ZoneMode::TruncateUdp),
        ),
    ] {
        follow_hosts.push(net.add_host(
            HostConfig {
                addrs,
                asn: INFRA_ASN,
                stack: StackPolicy::strict(),
            },
            NodeBlueprint::Auth {
                zones: vec![zone],
                logged: true,
            },
        ));
    }
    let experiment_hosts = (lab_host, follow_hosts[0], follow_hosts[1]);

    let root_hints: Arc<[IpAddr]> = vec![root_v4, root_v6].into();
    // The estate's zone cuts, pre-installed in the shared public resolvers
    // below. A cache that *learns* a cut on first contact logs a referral
    // walk whose presence depends on which client got there first — state
    // that spans ASes and therefore shards. Permanently-hot cuts (how a
    // long-running public service actually behaves) make the walk vanish
    // identically everywhere. In-AS resolvers stay cache-cold: their
    // clients never span shards, and their root walks are what the DITL
    // capture is for.
    let estate_cuts: Arc<[(Name, Vec<IpAddr>)]> = vec![
        (apex.clone(), vec![lab_v4, lab_v6]),
        (f4_apex.clone(), vec![f4_addr]),
        (f6_apex.clone(), vec![f6_addr]),
        (tcp_apex.clone(), vec![tcp_v4, tcp_v6]),
    ]
    .into();

    let shared = SharedCfg {
        root_hints: root_hints.clone(),
        no_cuts: Vec::new().into(),
        no_prefixes: Vec::new().into(),
        private_prefixes: private_ranges().to_vec().into(),
        localhost_prefixes: vec!["127.0.0.0/8".parse().unwrap(), "::1/128".parse().unwrap()].into(),
    };

    // ---------------- public DNS services ----------------
    net.add_simple_as(PUBLIC_DNS_ASN, BorderPolicy::strict());
    let pub_v4_block = alloc.next_v4_16();
    let (pub_v6_block, _) = carve_v6_64s(&mut alloc, 1);
    net.announce(pub_v4_block, PUBLIC_DNS_ASN);
    net.announce(pub_v6_block, PUBLIC_DNS_ASN);
    let mut public_dns_v4 = Vec::new();
    let mut public_dns_v6 = Vec::new();
    for i in 0..5u128 {
        let a4 = pub_v4_block.nth(10 + i).unwrap();
        let a6 = pub_v6_block.nth(10 + i).unwrap();
        public_dns_v4.push(a4);
        public_dns_v6.push(a6);
        net.add_host(
            HostConfig {
                addrs: vec![a4, a6],
                asn: PUBLIC_DNS_ASN,
                stack: Os::LinuxModern.stack_policy(),
            },
            NodeBlueprint::Resolver(ResolverConfig {
                acl: Acl::Open,
                forward_to: None,
                qmin: false,
                qmin_halts_on_nxdomain: true,
                allocator: Os::LinuxModern.default_port_allocator(),
                os: Os::LinuxModern,
                p0f_visible: false,
                root_hints: root_hints.clone(),
                // The public services relay queries from *every* measured
                // AS, so under AS-sharding their traffic interleaving
                // depends on the shard layout. Identity-derived draws keep
                // each relayed query's txid/port — and therefore the whole
                // merged survey log — invariant across shard counts.
                identity_draw_salt: Some(stream_seed(cfg.seed, PUBLIC_DNS_SALT_STREAM ^ i as u64)),
                preload_cuts: estate_cuts.clone(),
            }),
        );
    }

    // ---------------- the scanner's vantage ----------------
    net.add_simple_as(SCANNER_ASN, BorderPolicy::no_osav_vantage());
    let scan_v4_block = alloc.next_v4_16();
    let (scan_v6_block, _) = carve_v6_64s(&mut alloc, 1);
    net.announce(scan_v4_block, SCANNER_ASN);
    net.announce(scan_v6_block, SCANNER_ASN);
    let scanner = ScannerSlot {
        asn: SCANNER_ASN,
        v4: scan_v4_block.nth(10).unwrap(),
        v6: scan_v6_block.nth(10).unwrap(),
    };

    // ---------------- measured ASes ----------------
    let mut plans: Vec<AsPlan> = Vec::with_capacity(cfg.n_as);
    for i in 0..cfg.n_as {
        let asn = Asn(FIRST_MEASURED_ASN + i as u32);
        let country = sample_country(&mut rng);
        let profile = country.profile().unwrap_or(&COUNTRIES[COUNTRIES.len() - 1]);
        // Heavy-tailed target count around the country mean.
        let mean = (profile.targets_per_as * cfg.target_scale).max(1.0);
        let shape: f64 = rng.gen_range(0.25..2.5);
        let n_targets_v4 = ((mean * shape * shape) as usize).clamp(1, 4_000);
        // DSAV absence, with the country's size bias.
        let size_factor = (n_targets_v4 as f64 / mean).max(0.1);
        let p_no_dsav =
            (profile.no_dsav_rate * size_factor.powf(profile.size_bias * 0.4)).clamp(0.0, 1.0);
        let no_dsav = rng.gen_bool(p_no_dsav);

        // Address space: at least 2 /24s so other-prefix sources exist.
        // `address_density == 1.0` (all historical presets) multiplies
        // through exactly, so the carve — and everything downstream of the
        // allocator — is unchanged for them.
        let n_24s = ((n_targets_v4 as f64 * rng.gen_range(0.6..2.0) * cfg.address_density)
            as usize)
            .clamp(2, 300);
        let v4_prefixes = carve_v4_24s(&mut alloc, n_24s);

        let has_v6 = rng.gen_bool(V6_AS_FRACTION);
        let (v6_prefixes, n_targets_v6) = if has_v6 {
            let n64 = (n_24s / 2).clamp(2, 120);
            let (_, subs) = carve_v6_64s(&mut alloc, n64);
            // The paper's v6 target density is roughly half the v4 one
            // (785k/7.9k vs 11.2M/54k targets per AS).
            let nt6 = (n_targets_v4 / 2).max(1);
            (subs, nt6)
        } else {
            (Vec::new(), 0)
        };

        let as_wide: Arc<[Prefix]> = v4_prefixes
            .iter()
            .chain(&v6_prefixes)
            .copied()
            .collect::<Vec<Prefix>>()
            .into();
        let as_wide_private: Arc<[Prefix]> = as_wide
            .iter()
            .copied()
            .chain(private_ranges())
            .collect::<Vec<Prefix>>()
            .into();
        plans.push(AsPlan {
            asn,
            country,
            profile,
            v4_prefixes,
            v6_prefixes,
            n_targets_v4,
            n_targets_v6,
            no_dsav,
            as_wide,
            as_wide_private,
        });
    }

    // Each family pass can add one promotion target past its plan count.
    let max_targets: usize = plans
        .iter()
        .map(|p| p.n_targets_v4 + p.n_targets_v6 + 2)
        .sum();
    let mut resolvers: Vec<ResolverMeta> = Vec::with_capacity(max_targets);
    // The queryable index, built as one sorted run per AS and family. The
    // allocator carves disjoint, increasing ranges in AS order and every
    // IPv4 address sorts before every IPv6 one, so the v4 runs followed by
    // the v6 runs are the whole index in address order.
    let mut by_addr: Vec<(IpAddr, u32)> = Vec::with_capacity(max_targets);
    let mut by_addr_v6: Vec<(IpAddr, u32)> = Vec::new();
    // Collision membership during generation only. An AS draws targets
    // from its own carved prefixes, so a collision can only happen inside
    // one AS: the set is cleared per AS and keeps its capacity. (It is
    // never iterated, so its hash order can't leak into the build.)
    let mut target_addrs: HashSet<IpAddr> = HashSet::new();
    let mut measured_asns = Vec::with_capacity(plans.len());

    for plan in &plans {
        measured_asns.push(plan.asn);
        target_addrs.clear();
        target_addrs.reserve(plan.n_targets_v4 + plan.n_targets_v6 + 2);
        // An AS that deploys DSAV also filters bogon (private/loopback)
        // sources — SAV hygiene comes as a package; without this, a
        // "protected" network would still admit our private-source spoofs
        // and the paper's reachability ⇒ no-DSAV implication would break.
        let internal_pass_permille = if !plan.no_dsav {
            0
        } else if rng.gen_bool(cfg.fully_spoofable_fraction) {
            1000
        } else {
            rng.gen_range(cfg.partial_pass_permille.0..=cfg.partial_pass_permille.1)
        };
        let policy = BorderPolicy {
            osav: rng.gen_bool(OSAV_FRACTION),
            dsav: !plan.no_dsav,
            filter_private_ingress: !plan.no_dsav || rng.gen_bool(PRIVATE_FILTER_FRACTION),
            filter_loopback_ingress: !plan.no_dsav || rng.gen_bool(LOOPBACK_FILTER_FRACTION),
            filter_loopback_ingress_v6: !plan.no_dsav || rng.gen_bool(LOOPBACK_FILTER_FRACTION_V6),
            filter_ds_ingress_v4: plan.no_dsav && rng.gen_bool(DS_FILTER_FRACTION_V4),
            subnet_savi: plan.no_dsav && rng.gen_bool(cfg.subnet_savi_fraction),
            internal_pass_permille,
        };
        net.add_simple_as(plan.asn, policy);
        for p in plan.v4_prefixes.iter().chain(&plan.v6_prefixes) {
            net.announce(*p, plan.asn);
            // Occasionally a prefix geolocates to a second country.
            let c = if rng.gen_bool(0.02) {
                sample_country(&mut rng)
            } else {
                plan.country
            };
            geo.insert(*p, plan.asn, c);
            #[cfg(test)]
            tests::record_geo(*p, c);
        }

        // A middlebox AS intercepts all inbound UDP/53.
        let middlebox = plan.no_dsav && rng.gen_bool(MIDDLEBOX_AS_FRACTION);
        if middlebox {
            let mbx_addr = plan.v4_prefixes[0].nth(250).unwrap();
            let upstream = public_dns_v4[rng.gen_range(0..public_dns_v4.len())];
            let host = net.add_host(
                HostConfig {
                    addrs: vec![mbx_addr],
                    asn: plan.asn,
                    stack: StackPolicy::permissive(),
                },
                NodeBlueprint::Interceptor { upstream },
            );
            net.set_dns_interceptor(plan.asn, host);
        }

        // Lazily created in-AS upstream for forwarders.
        let mut isp_upstream: Option<IpAddr> = None;
        // Secondary (dual-stack) addresses already handed out in this AS.
        let mut aux_used: std::collections::HashSet<IpAddr> = std::collections::HashSet::new();

        // ---- v4 targets, then v6 targets ----
        for (v6_family, count) in [(false, plan.n_targets_v4), (true, plan.n_targets_v6)] {
            let prefixes = if v6_family {
                &plan.v6_prefixes
            } else {
                &plan.v4_prefixes
            };
            if prefixes.is_empty() {
                continue;
            }
            let index = if v6_family {
                &mut by_addr_v6
            } else {
                &mut by_addr
            };
            let run_start = index.len();
            let mut any_responsive = false;
            // One extra iteration slot for the promotion pass below.
            for extra in 0..=count {
                if extra < count {
                    // normal target
                } else {
                    // Promotion pass: if a no-DSAV AS ended with zero
                    // responsive targets (a down-scaling artifact), add one
                    // guaranteed-responsive target.
                    if any_responsive
                        || count == 0
                        || !plan.no_dsav
                        || !rng.gen_bool(ENSURE_RESPONSIVE_PROB)
                    {
                        break;
                    }
                }
                // Address: random prefix, low host offset (v6 "hitlist
                // style": first 100 addresses of the /64, §3.2).
                let p = prefixes[rng.gen_range(0..prefixes.len())];
                let offset: u128 = if v6_family {
                    rng.gen_range(2..100)
                } else {
                    rng.gen_range(1..240)
                };
                let addr = p.nth(offset).unwrap();
                if target_addrs.contains(&addr) {
                    continue; // collision: skip (target counts are approximate)
                }

                let accept = if v6_family {
                    (plan.profile.accept_rate * V6_ACCEPT_MULTIPLIER).min(0.95)
                } else {
                    (plan.profile.accept_rate * V4_ACCEPT_MULTIPLIER).min(0.95)
                };
                let roll: f64 = rng.gen();
                let (live, responsive) = if extra == count || roll < accept {
                    (true, true)
                } else if rng.gen_bool(1.0 - cfg.refuse_all_fraction) {
                    (false, false) // stale / never was a resolver
                } else {
                    (true, false) // live but refuses everything
                };
                any_responsive |= responsive;

                let meta = if !live {
                    ResolverMeta {
                        addr,
                        other_addr: None,
                        asn: plan.asn,
                        live: false,
                        responsive: false,
                        open: false,
                        forwards: false,
                        qmin: false,
                        qmin_halts: false,
                        os: Os::LinuxModern,
                        software: DnsSoftware::Bind99Plus,
                        port_class: PortClass::FullRange,
                        p0f_visible: false,
                        acl: AclKind::NoMatch,
                        port_2018: Port2018::Absent,
                    }
                } else {
                    build_resolver(
                        &cfg,
                        &mut rng,
                        &mut net,
                        plan,
                        addr,
                        v6_family,
                        responsive,
                        &shared,
                        &public_dns_v4,
                        &public_dns_v6,
                        &mut isp_upstream,
                        &mut aux_used,
                    )
                };
                target_addrs.insert(addr);
                index.push((addr, resolvers.len() as u32));
                resolvers.push(meta);
            }
            index[run_start..].sort_unstable_by_key(|&(a, _)| a);
        }
    }
    drop(target_addrs);
    by_addr.append(&mut by_addr_v6);
    assert!(
        by_addr.windows(2).all(|p| p[0].0 < p[1].0),
        "per-AS address runs must concatenate into a strictly sorted index"
    );

    // The IPv6 hitlist: /64s that contain targets ("observed activity").
    // Deduplicated and grouped by origin AS once the routes are final,
    // below.
    let v6_active: Vec<Prefix> = by_addr
        .iter()
        .filter(|(a, _)| a.is_ipv6())
        .map(|&(a, _)| Prefix::subprefix_of(a, 64))
        .collect();

    // ---------------- DITL traces ----------------
    // Freezing the topology (the route fill and the address-index sort)
    // reads nothing the DITL pass touches, so it runs beside that pass on
    // one scoped thread.
    let ((topo, blueprints), (ditl2019, ditl2018, ditl_candidates)) = std::thread::scope(|s| {
        let finish = s.spawn(move || net.finish());
        let ditl = if cfg.materialize_ditl {
            let t2019 = ditl::generate_2019(&mut rng, &resolvers, &mut alloc);
            let t2018 = ditl::generate_2018(&mut rng, &resolvers);
            (t2019, t2018, Vec::new())
        } else {
            // Streaming pipeline: `rng` ends where `generate_2019` leaves
            // it, but only the deduplicated source list survives. The 2018
            // comparison trace is skipped entirely (nothing after this
            // point reads `rng`, so its draws are not owed).
            let cands = ditl::candidate_sources_2019(&mut rng, &resolvers, &by_addr, &mut alloc);
            (Vec::new(), Vec::new(), cands)
        };
        let built = finish
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        (built, ditl)
    });

    let auth = AuthEstate {
        apex,
        f4_apex,
        f6_apex,
        tcp_apex,
        root_v4,
        root_v6,
        lab_v4,
        lab_v6,
    };

    let topo = Arc::new(topo);
    let v6_hitlist = Hitlist::new(v6_active, topo.routes());

    // Compile the chaos schedule over the finished world. The fault domain
    // is the measured edge: burst/flap windows target measured ASes,
    // crash/restart epochs target resolver hosts inside them. The domain
    // is a pure function of the build, so every shard (and every shard
    // *count*) sees one identical schedule.
    let faults = cfg.chaos.as_ref().map(|c| {
        let measured: std::collections::HashSet<u32> = measured_asns.iter().map(|a| a.0).collect();
        let crash_hosts: Vec<HostId> = blueprints
            .iter()
            .enumerate()
            .filter(|(id, b)| {
                matches!(b, NodeBlueprint::Resolver(_)) && measured.contains(&topo.host_asn(*id).0)
            })
            .map(|(id, _)| id)
            .collect();
        Arc::new(FaultSchedule::compile(
            c,
            &FaultDomain {
                asns: measured_asns.clone(),
                crash_hosts,
            },
        ))
    });

    World {
        topo,
        blueprints,
        cfg,
        geo,
        resolvers,
        by_addr,
        scanner,
        auth,
        public_dns_v4,
        public_dns_v6,
        ditl2019,
        ditl2018,
        ditl_candidates,
        measured_asns,
        experiment_hosts,
        v6_hitlist,
        faults,
    }
}

/// Switch the experiment zones from NXDOMAIN to wildcard synthesis — the
/// §3.6.4 fix the paper proposes for a future campaign: "a future version
/// of our experiment would produce more inclusive results by returning
/// answers synthesized from wildcard entries, rather than returning
/// NXDOMAIN." With wildcards, QNAME-minimizing resolvers never hit the
/// NXDOMAIN cut, so they complete the full QNAME and stay countable.
pub fn set_experiment_zone_wildcard(world: &mut World) {
    let (main, f4, f6) = world.experiment_hosts;
    let apexes = [
        world.auth.apex.clone(),
        world.auth.f4_apex.clone(),
        world.auth.f6_apex.clone(),
    ];
    for (host, apex) in [main, f4, f6].into_iter().zip(apexes) {
        // The flip edits the *blueprint*, before any runtime is spawned, so
        // every shard's auth servers come up in wildcard mode.
        let NodeBlueprint::Auth { zones, .. } = &mut world.blueprints[host] else {
            panic!("experiment host is an AuthServer");
        };
        zones
            .iter_mut()
            .find(|z| z.apex == apex)
            .expect("zone not served by this host")
            .mode = ZoneMode::Wildcard;
    }
}

/// Create one live resolver host and return its truth record.
#[allow(clippy::too_many_arguments)]
fn build_resolver(
    cfg: &WorldConfig,
    rng: &mut ChaCha8Rng,
    net: &mut TopologyBuilder<NodeBlueprint>,
    plan: &AsPlan,
    addr: IpAddr,
    v6_family: bool,
    responsive: bool,
    shared: &SharedCfg,
    public_dns_v4: &[IpAddr],
    public_dns_v6: &[IpAddr],
    isp_upstream: &mut Option<IpAddr>,
    aux_used: &mut std::collections::HashSet<IpAddr>,
) -> ResolverMeta {
    // Refuse-all resolvers: a live host whose ACL matches nothing.
    if !responsive {
        let identity = sample_port_identity(rng);
        let resolver_cfg = ResolverConfig {
            acl: Acl::Allow(shared.no_prefixes.clone()),
            forward_to: None,
            qmin: false,
            qmin_halts_on_nxdomain: true,
            allocator: identity.allocator.clone(),
            os: identity.os,
            p0f_visible: identity.p0f_visible,
            root_hints: shared.root_hints.clone(),
            identity_draw_salt: None,
            preload_cuts: shared.no_cuts.clone(),
        };
        net.add_host(
            HostConfig {
                addrs: vec![addr],
                asn: plan.asn,
                stack: identity.os.stack_policy(),
            },
            NodeBlueprint::Resolver(resolver_cfg),
        );
        return ResolverMeta {
            addr,
            other_addr: None,
            asn: plan.asn,
            live: true,
            responsive: false,
            open: false,
            forwards: false,
            qmin: false,
            qmin_halts: false,
            os: identity.os,
            software: identity.software,
            port_class: identity.class,
            p0f_visible: identity.p0f_visible,
            acl: AclKind::NoMatch,
            port_2018: sample_port_2018(rng, identity.class),
        };
    }

    // Responsive: forwarder or direct.
    let fwd_frac = if v6_family {
        FORWARD_FRACTION_V6
    } else {
        FORWARD_FRACTION_V4
    };
    let forwards = rng.gen_bool(fwd_frac);
    let qmin = rng.gen_bool(cfg.qmin_fraction);
    let qmin_halts = qmin && rng.gen_bool(cfg.qmin_halts_fraction);

    // Dual-stack: v6 targets are mostly dual-stack boxes. Secondary v4
    // addresses come from the 240..250 offsets (targets use 1..240) and
    // must be unique within the AS.
    let other_addr: Option<IpAddr> = if v6_family && rng.gen_bool(0.6) {
        (0..20)
            .map(|_| {
                let p = plan.v4_prefixes[rng.gen_range(0..plan.v4_prefixes.len())];
                p.nth(rng.gen_range(240..250)).unwrap()
            })
            .find(|a| aux_used.insert(*a))
    } else {
        None
    };
    let mut addrs = vec![addr];
    addrs.extend(other_addr);

    let (identity, open) = if forwards {
        // Forwarders' own port behaviour is invisible to the authoritative
        // side; give them a common identity and the forwarder open-rate.
        let identity = sample_identity_for_class(rng, PortClass::LinuxPool);
        (identity, rng.gen_bool(FORWARDER_OPEN_FRACTION))
    } else {
        let identity = sample_port_identity(rng);
        let open = rng.gen_bool(identity.class.open_probability());
        (identity, open)
    };

    let acl_kind = if open {
        AclKind::Open
    } else {
        AclKind::sample_closed(rng)
    };
    let acl = materialize_acl(acl_kind, addr, plan, shared);

    let forward_to = if forwards {
        Some(pick_upstream(
            rng,
            net,
            plan,
            v6_family,
            shared,
            public_dns_v4,
            public_dns_v6,
            isp_upstream,
        ))
    } else {
        None
    };

    let resolver_cfg = ResolverConfig {
        acl,
        forward_to,
        qmin,
        qmin_halts_on_nxdomain: qmin_halts,
        allocator: identity.allocator.clone(),
        os: identity.os,
        p0f_visible: identity.p0f_visible,
        root_hints: shared.root_hints.clone(),
        identity_draw_salt: None,
        preload_cuts: shared.no_cuts.clone(),
    };
    net.add_host(
        HostConfig {
            addrs,
            asn: plan.asn,
            stack: identity.os.stack_policy(),
        },
        NodeBlueprint::Resolver(resolver_cfg),
    );

    ResolverMeta {
        addr,
        other_addr,
        asn: plan.asn,
        live: true,
        responsive: true,
        open,
        forwards,
        qmin,
        qmin_halts,
        os: identity.os,
        software: identity.software,
        port_class: identity.class,
        p0f_visible: identity.p0f_visible,
        acl: acl_kind,
        port_2018: sample_port_2018(rng, identity.class),
    }
}

/// Turn an [`AclKind`] into concrete prefixes for this resolver. Every
/// non-address-specific list is `Arc`-shared (per world or per AS); only
/// the subnet/self kinds allocate per resolver, and those are one prefix.
fn materialize_acl(kind: AclKind, addr: IpAddr, plan: &AsPlan, shared: &SharedCfg) -> Acl {
    match kind {
        AclKind::Open => Acl::Open,
        AclKind::AsWide => Acl::Allow(plan.as_wide.clone()),
        AclKind::SameSubnet => Acl::Allow(
            vec![Prefix::subprefix_of(
                addr,
                if addr.is_ipv6() { 64 } else { 24 },
            )]
            .into(),
        ),
        AclKind::SelfOnly => Acl::Allow(
            vec![Prefix::subprefix_of(
                addr,
                if addr.is_ipv6() { 128 } else { 32 },
            )]
            .into(),
        ),
        AclKind::AsWidePlusPrivate => Acl::Allow(plan.as_wide_private.clone()),
        AclKind::PrivateOnly => Acl::Allow(shared.private_prefixes.clone()),
        AclKind::LocalhostOnly => Acl::Allow(shared.localhost_prefixes.clone()),
        AclKind::NoMatch => Acl::Allow(shared.no_prefixes.clone()),
    }
}

/// Choose a forwarder's upstream: an in-AS ISP resolver (created on first
/// use) or a public DNS service.
#[allow(clippy::too_many_arguments)]
fn pick_upstream(
    rng: &mut ChaCha8Rng,
    net: &mut TopologyBuilder<NodeBlueprint>,
    plan: &AsPlan,
    v6_family: bool,
    shared: &SharedCfg,
    public_dns_v4: &[IpAddr],
    public_dns_v6: &[IpAddr],
    isp_upstream: &mut Option<IpAddr>,
) -> IpAddr {
    if v6_family {
        // v6 forwarders ride public DNS over v6.
        return public_dns_v6[rng.gen_range(0..public_dns_v6.len())];
    }
    if rng.gen_bool(0.5) {
        return public_dns_v4[rng.gen_range(0..public_dns_v4.len())];
    }
    if let Some(up) = *isp_upstream {
        return up;
    }
    // Create the AS's ISP resolver: closed to the outside, AS-wide ACL.
    // At most one per AS, so the v4 prefix list is cloned, not shared.
    let addr = plan.v4_prefixes[0].nth(251).unwrap();
    let cfg = ResolverConfig {
        acl: Acl::Allow(plan.v4_prefixes.clone().into()),
        forward_to: None,
        qmin: false,
        qmin_halts_on_nxdomain: true,
        allocator: Os::LinuxModern.default_port_allocator(),
        os: Os::LinuxModern,
        p0f_visible: false,
        root_hints: shared.root_hints.clone(),
        identity_draw_salt: None,
        preload_cuts: shared.no_cuts.clone(),
    };
    net.add_host(
        HostConfig {
            addrs: vec![addr],
            asn: plan.asn,
            stack: Os::LinuxModern.stack_policy(),
        },
        NodeBlueprint::Resolver(cfg),
    );
    *isp_upstream = Some(addr);
    addr
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcd_netsim::PrefixMap;
    use std::cell::RefCell;

    thread_local! {
        /// Every `(prefix, country)` pair `build` registers with the
        /// world's `GeoDb` on this thread, in order.
        static GEO_PAIRS: RefCell<Vec<(Prefix, Country)>> = const { RefCell::new(Vec::new()) };
    }

    pub(super) fn record_geo(prefix: Prefix, country: Country) {
        GEO_PAIRS.with(|v| v.borrow_mut().push((prefix, country)));
    }

    #[test]
    fn tiny_world_builds_and_is_deterministic() {
        let w1 = build(WorldConfig::tiny(11));
        let w2 = build(WorldConfig::tiny(11));
        assert_eq!(w1.resolvers.len(), w2.resolvers.len());
        assert!(!w1.resolvers.is_empty());
        assert_eq!(w1.measured_asns.len(), w1.cfg.n_as);
        // Same addresses in the same order.
        let a1: Vec<IpAddr> = w1.resolvers.iter().map(|r| r.addr).collect();
        let a2: Vec<IpAddr> = w2.resolvers.iter().map(|r| r.addr).collect();
        assert_eq!(a1, a2);
        assert_eq!(w1.ditl2019.len(), w2.ditl2019.len());
    }

    #[test]
    fn world_has_required_infrastructure() {
        let w = build(WorldConfig::tiny(3));
        // Roots, org, lab, f4, f6, tcp, 5 public resolvers at minimum.
        assert!(w.topo.host_count() > 11);
        assert_eq!(w.public_dns_v4.len(), 5);
        // Scanner slot routes to the scanner AS.
        assert_eq!(w.topo.routes().origin(w.scanner.v4), Some(w.scanner.asn));
        assert_eq!(w.topo.routes().origin(w.scanner.v6), Some(w.scanner.asn));
        // The scanner AS must lack OSAV (the vantage requirement, §3.4).
        assert!(!w.topo.as_info(w.scanner.asn).unwrap().policy.osav);
        // Auth addresses route to infrastructure.
        assert_eq!(w.topo.routes().origin(w.auth.root_v4), Some(INFRA_ASN));
        assert_eq!(w.topo.routes().origin(w.auth.lab_v6), Some(INFRA_ASN));
    }

    #[test]
    fn dsav_rate_is_roughly_half() {
        let w = build(WorldConfig::paper_shape(5));
        let lacking = w
            .measured_asns
            .iter()
            .filter(|&&a| w.truly_lacks_dsav(a))
            .count();
        let frac = lacking as f64 / w.measured_asns.len() as f64;
        assert!(
            (0.35..0.60).contains(&frac),
            "no-DSAV fraction {frac} out of expected band"
        );
    }

    #[test]
    fn target_truth_is_indexed() {
        let w = build(WorldConfig::tiny(7));
        for (i, r) in w.resolvers.iter().enumerate() {
            assert!(std::ptr::eq(
                w.meta_of(r.addr).expect("indexed"),
                &w.resolvers[i]
            ));
            assert_eq!(w.topo.routes().origin(r.addr), Some(r.asn));
        }
        // The index is strictly sorted (unique addresses, binary-searchable).
        assert!(w.by_addr.windows(2).all(|p| p[0].0 < p[1].0));
    }

    /// `tiny` under the default address plan and under the packed plan
    /// `internet_scale` uses, the only layout where ASes share /16s.
    fn both_layouts(seed: u64) -> [WorldConfig; 2] {
        [
            WorldConfig::tiny(seed),
            WorldConfig {
                address_density: 0.35,
                ..WorldConfig::tiny(seed)
            },
        ]
    }

    #[test]
    fn by_addr_index_is_insertion_order_independent() {
        // The queryable index is a sorted vector: whatever order targets
        // were generated in (or any future parallel build produces), the
        // index — and therefore every lookup and any iteration over it —
        // is identical. This pins the property that replaced the old
        // HashMap index, and that the per-AS runs `build` concatenates
        // equal a full sort under both address plans.
        for cfg in both_layouts(31) {
            let packed = cfg.address_density < 1.0;
            let w = build(cfg);
            if packed {
                // The layout the runs must survive: two ASes in one /16.
                let mut owners: Vec<(Prefix, Asn)> = w
                    .resolvers
                    .iter()
                    .filter(|r| r.addr.is_ipv4())
                    .map(|r| (Prefix::subprefix_of(r.addr, 16), r.asn))
                    .collect();
                owners.sort_unstable();
                owners.dedup();
                assert!(owners.windows(2).any(|p| p[0].0 == p[1].0));
            }
            let mut forward: Vec<(IpAddr, u32)> = w
                .resolvers
                .iter()
                .enumerate()
                .map(|(i, r)| (r.addr, i as u32))
                .collect();
            let mut reversed: Vec<(IpAddr, u32)> = forward.iter().rev().copied().collect();
            forward.sort_unstable_by_key(|&(a, _)| a);
            reversed.sort_unstable_by_key(|&(a, _)| a);
            assert_eq!(forward, reversed);
            assert_eq!(forward, w.by_addr);
        }
    }

    #[test]
    fn geolocation_through_routes_matches_a_prefix_trie() {
        // `GeoDb` answers from the route the routing table finds. It must
        // agree with a longest-prefix-match trie filled from the pairs
        // `build` registered, on every address a survey can ask about.
        let mut multi_country_ases = 0;
        for base in [WorldConfig::tiny(17), WorldConfig::paper_shape(17)] {
            for address_density in [1.0, 0.35] {
                let cfg = WorldConfig {
                    address_density,
                    ..base.clone()
                };
                GEO_PAIRS.with(|v| v.borrow_mut().clear());
                let w = build(cfg);
                let mut trie: PrefixMap<Country> = PrefixMap::new();
                for (prefix, country) in GEO_PAIRS.with(|v| v.take()) {
                    trie.insert(prefix, country);
                }
                assert!(trie.len() > w.measured_asns.len());

                let mut addrs: Vec<IpAddr> = w
                    .resolvers
                    .iter()
                    .flat_map(|r| [Some(r.addr), r.other_addr])
                    .flatten()
                    .collect();
                // The DITL sources add the special-purpose and ghost-/16
                // noise to the targets.
                addrs.extend(w.ditl2019.iter().map(|r| r.src));
                addrs.extend([w.auth.root_v4, w.auth.root_v6, w.auth.lab_v4, w.auth.lab_v6]);
                addrs.extend([w.scanner.v4, w.scanner.v6]);
                addrs.extend(w.public_dns_v4.iter().chain(&w.public_dns_v6));
                addrs.extend(
                    ["1.2.3.4", "223.255.0.1", "2001:db8::1", "fe80::1"]
                        .map(|a| a.parse::<IpAddr>().unwrap()),
                );
                let routes = w.topo.routes();
                let mut unrouted = 0;
                let mut unlocated = 0;
                for &a in &addrs {
                    let expect = trie.get(a);
                    assert_eq!(w.geo.country_of(routes, a), expect, "{a}");
                    unrouted += routes.origin(a).is_none() as usize;
                    unlocated += expect.is_none() as usize;
                }
                // Each class showed up: located targets, routed but
                // unlocated infrastructure, and unrouted noise.
                assert!(unlocated > unrouted && unrouted > 0);
                for &asn in &w.measured_asns {
                    let n = w.geo.countries_of(asn).count();
                    assert!(n > 0, "{asn}");
                    multi_country_ases += (n > 1) as usize;
                }
            }
        }
        // Some prefixes were geolocated away from their AS's home.
        assert!(multi_country_ases > 0);
    }

    #[test]
    fn streaming_ditl_matches_materialized_candidates() {
        // Building with `materialize_ditl` off must leave every derived
        // quantity identical: same topology digest (same RNG path), and a
        // candidate list equal to the deduplicated sources of the
        // materialized trace.
        for cfg in both_layouts(19) {
            let mat = build(cfg.clone());
            let streamed = build(WorldConfig {
                materialize_ditl: false,
                ..cfg
            });
            assert_eq!(mat.topo.digest(), streamed.topo.digest());
            assert!(streamed.ditl2019.is_empty() && streamed.ditl2018.is_empty());
            let mut expect: Vec<IpAddr> = mat.ditl2019.iter().map(|r| r.src).collect();
            expect.sort_unstable();
            expect.dedup();
            assert_eq!(streamed.ditl_candidates, expect);
        }
    }

    #[test]
    fn responsive_targets_exist_and_mix_open_closed() {
        let w = build(WorldConfig::paper_shape(9));
        let responsive: Vec<_> = w.resolvers.iter().filter(|r| r.responsive).collect();
        assert!(
            responsive.len() > 100,
            "expected a healthy responsive population, got {}",
            responsive.len()
        );
        let open = responsive.iter().filter(|r| r.open).count();
        let frac = open as f64 / responsive.len() as f64;
        // §5.1: 40% open globally.
        assert!((0.30..0.50).contains(&frac), "open fraction {frac}");
        let forwarders = responsive.iter().filter(|r| r.forwards).count();
        let ffrac = forwarders as f64 / responsive.len() as f64;
        assert!((0.30..0.55).contains(&ffrac), "forward fraction {ffrac}");
    }

    #[test]
    fn v6_targets_present() {
        let w = build(WorldConfig::paper_shape(13));
        let v6 = w.resolvers.iter().filter(|r| r.addr.is_ipv6()).count();
        assert!(v6 > 20, "v6 targets: {v6}");
    }
}
