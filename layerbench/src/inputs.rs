//! Seeded inputs: the analysed programs, their client query pools, and
//! each workload's fixed request sequence.
//!
//! The programs are the benchmark's data set. They are generated from
//! Table-3 profiles with one fixed generator seed, so every run analyses
//! the same graphs, the way the paper's runs analyse the same nine Java
//! programs. `--seed` draws what is asked of them: which program and
//! queries each request carries, where each client stream starts, which
//! method each edit invalidates. The same seed gives the same requests.

use dynsum_clients::{queries_for, ClientKind, QuerySite};
use dynsum_pag::{MethodId, ProgramInfo, VarId};
use dynsum_workloads::wire::write_workload;
use dynsum_workloads::{generate, BenchmarkProfile, GeneratorOptions};

/// Generator seed of every analysed program (the generator's default).
pub const PROGRAM_SEED: u64 = 0xD45;

/// SplitMix64: a small, fully specified generator, so a seed means the
/// same requests on every platform and toolchain.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() >> 11) % n as u64) as usize
    }
}

/// One client query site of a program: the paper's query unit.
#[derive(Debug, Clone)]
pub struct PoolEntry {
    /// Queried variable.
    pub var: VarId,
    /// Client asking.
    pub client: ClientKind,
    /// Site under scrutiny.
    pub site: QuerySite,
}

/// The program's client query pool: every SafeCast, NullDeref and
/// FactoryM site, in that order (the Table-4 streams back to back).
pub fn query_pool(info: &ProgramInfo) -> Vec<PoolEntry> {
    ClientKind::ALL
        .iter()
        .flat_map(|&client| {
            queries_for(client, info)
                .into_iter()
                .map(move |q| PoolEntry {
                    var: q.var,
                    client,
                    site: q.site,
                })
        })
        .collect()
}

/// Pool indices of each client's stream, in [`ClientKind::ALL`] order.
pub fn client_streams(pool: &[PoolEntry]) -> Vec<Vec<u32>> {
    ClientKind::ALL
        .iter()
        .map(|&client| {
            (0..pool.len() as u32)
                .filter(|&i| pool[i as usize].client == client)
                .collect()
        })
        .collect()
}

/// The workload document of profile `name` at `scale`.
pub fn program_text(name: &str, scale: f64) -> String {
    let profile = BenchmarkProfile::find(name).expect("benchmark profile exists");
    let options = GeneratorOptions {
        scale,
        seed: PROGRAM_SEED,
        ..GeneratorOptions::default()
    };
    write_workload(&generate(profile, &options))
}

/// One in-process request: a query batch against one program's
/// session, optionally followed by an edit.
#[derive(Debug, Clone)]
pub struct BatchRequest {
    /// Program (session) index.
    pub program: usize,
    /// Pool indices of the batch's queries.
    pub entries: Vec<u32>,
    /// Method invalidated right after the batch (edit workloads).
    pub invalidate: Option<MethodId>,
}

/// `count` batches of `size` queries. Each batch targets a uniformly
/// drawn program; each query draws a client uniformly, then a site of
/// that client's stream, so every batch mixes the three streams. When
/// `edits` is given, every batch is followed by an invalidation of a
/// method drawn from `edits[program]`.
pub fn batch_sequence(
    seed: u64,
    pools: &[Vec<PoolEntry>],
    count: usize,
    size: usize,
    edits: Option<&[Vec<MethodId>]>,
) -> Vec<BatchRequest> {
    let streams: Vec<Vec<Vec<u32>>> = pools
        .iter()
        .map(|pool| {
            client_streams(pool)
                .into_iter()
                .filter(|s| !s.is_empty())
                .collect()
        })
        .collect();
    let mut rng = Rng::new(seed, 1);
    (0..count)
        .map(|_| {
            let program = rng.below(pools.len());
            let entries = (0..size)
                .map(|_| {
                    let stream = &streams[program][rng.below(streams[program].len())];
                    stream[rng.below(stream.len())]
                })
                .collect();
            let invalidate = edits.map(|methods| {
                let methods = &methods[program];
                methods[rng.below(methods.len())]
            });
            BatchRequest {
                program,
                entries,
                invalidate,
            }
        })
        .collect()
}

/// Methods owning at least one queried variable of `pool`, sorted:
/// the edit targets (an edit elsewhere would evict nothing queried).
pub fn queried_methods(pag: &dynsum_pag::Pag, pool: &[PoolEntry]) -> Vec<MethodId> {
    let mut methods: Vec<MethodId> = pool
        .iter()
        .filter_map(|e| pag.method_of(pag.var_node(e.var)))
        .collect();
    methods.sort_unstable();
    methods.dedup();
    methods
}

/// One frame a service client sends.
#[derive(Debug, Clone)]
pub enum Frame {
    /// A single `query` of one pool entry.
    Query(u32),
    /// A `batch` of pool entries.
    Batch(Vec<u32>),
    /// An `invalidate_method` of a raw method id.
    Invalidate(u32),
    /// A `health` report.
    Health,
}

/// Service client `client`'s frame sequence: 70% single queries, 25%
/// `batch_size`-var batches, 2% invalidations and 3% health reports.
pub fn frame_sequence(
    seed: u64,
    client: u64,
    pool_len: usize,
    methods: &[MethodId],
    count: usize,
    batch_size: usize,
) -> Vec<Frame> {
    let mut rng = Rng::new(seed, 100 + client);
    (0..count)
        .map(|_| match rng.below(100) {
            0..=1 => Frame::Invalidate(methods[rng.below(methods.len())].as_raw()),
            2..=4 => Frame::Health,
            5..=29 => Frame::Batch(
                (0..batch_size)
                    .map(|_| rng.below(pool_len) as u32)
                    .collect(),
            ),
            _ => Frame::Query(rng.below(pool_len) as u32),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_and_spread() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7, 1);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let mut r = Rng::new(7, 1);
        assert_eq!(a, (0..4).map(|_| r.next_u64()).collect::<Vec<_>>());
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(8, 1).next_u64());
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
    }
}
