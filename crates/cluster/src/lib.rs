//! kdv-cluster: the sharded serving tier.
//!
//! One `kdv serve` process is a complete tile server, but a single
//! process is one crash away from an outage and one core short of a
//! deadline. This crate scales the server *out* instead of up, with
//! three cooperating pieces:
//!
//! * [`ring`] — rendezvous (highest-random-weight) hashing over tile
//!   keys `(dataset, kind, z, x, y)`: every router agrees which shard
//!   owns which tile with zero coordination, each shard's LRU cache
//!   holds a disjoint slice of the pyramid, and membership changes
//!   remap only ~1/N of the keys.
//! * [`proxy`] — the router process: a dependency-free HTTP/1.1
//!   reverse proxy with per-shard health probes, bounded in-flight
//!   admission (`429 + Retry-After` shed), pooled keep-alive upstream
//!   connections, one-hop failover to the hash ring's runner-up
//!   (`X-Kdv-Failover`), and trace-ID propagation end to end.
//! * [`supervisor`] — spawns and babysits the shard children,
//!   discovers their ports, respawns crashes without moving ownership,
//!   and turns SIGTERM into a fleet-wide graceful drain.
//!
//! [`metrics`] merges the fleet's observability into one scrape:
//! per-shard documents plus a summed rollup (JSON schema
//! `kdv-cluster-metrics/1`) and a Prometheus exposition.
//!
//! Ingest-mutable datasets are **pinned**: the first `POST
//! /datasets/{name}/points` through the router pins every later
//! request for that dataset — tiles included — to its per-dataset
//! owner shard, so exactly one process appends the dataset's WAL and
//! reads its memtable. Pinned requests never fail over (the fallback
//! shard's view would be stale and its WAL handle would race the
//! owner's); they answer `503` while the owner is down and the
//! supervisor respawns it.

pub mod health;
pub mod metrics;
pub mod proxy;
pub mod ring;
pub mod supervisor;

pub use health::ShardSlot;
pub use proxy::{Router, RouterConfig};
pub use ring::Ring;
pub use supervisor::{SpawnError, Supervisor, SupervisorConfig};
