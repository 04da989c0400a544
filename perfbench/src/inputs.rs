//! Seeded inputs, generated before any set-up is timed.
//!
//! * the table: 200k rows of the Forest simulacrum projected onto four
//!   fixed continuous columns, so a seed changes the draws but not which
//!   attributes are modelled;
//! * a pool of data-centred queries of 0.01% of the domain's volume
//!   (`WorkloadKind::DataVolume`) with exact labels, cycled through by the
//!   measured phases. The paper's 1% boxes overlap so much that one
//!   model's sampling error is shared by the whole pool, and the pool's
//!   mean error then varies by about 25% from seed to seed; at 0.01% the
//!   per-query errors are close to independent;
//! * a separate training set from the same generator;
//! * for the Listing-1 loop, a shifted insert stream: Power simulacrum
//!   rows mapped affinely onto the table's bounding box, so inserts land in
//!   the modelled domain with a different joint distribution.

use kdesel_data::{datasets, generate_workload, Dataset, WorkloadKind, WorkloadSpec};
use kdesel_storage::Table;
use kdesel_types::LabelledQuery;
use rand::rngs::StdRng;
use rand::SeedableRng;

pub const ROWS: usize = 200_000;
pub const DIMS: usize = 4;
/// elevation, horizontal distance to hydrology, to roadways, to fire points.
const FOREST_COLUMNS: [usize; DIMS] = [0, 3, 5, 9];
/// minute of day, active power, reactive power, voltage.
const POWER_COLUMNS: [usize; DIMS] = [0, 2, 3, 4];
pub const POOL_QUERIES: usize = 1024;
pub const TRAINING_QUERIES: usize = 48;
const QUERY_VOLUME: f64 = 1e-4;

pub struct Inputs {
    pub table: Table,
    pub pool: Vec<LabelledQuery>,
    pub training: Vec<LabelledQuery>,
    /// Row-major insert stream (`DIMS` values per row); empty unless asked.
    pub stream: Vec<f64>,
}

/// Independent rng streams derived from the workload seed.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ stream)
}

impl Inputs {
    pub fn generate(seed: u64, stream_rows: usize) -> Self {
        let full = Dataset::Forest.generate(ROWS, seed);
        let table = datasets::project(&full, &FOREST_COLUMNS);
        drop(full);
        let spec = WorkloadSpec {
            kind: WorkloadKind::DataVolume,
            target: QUERY_VOLUME,
        };
        let pool = generate_workload(&table, spec, POOL_QUERIES, &mut rng(seed, 1));
        let training = generate_workload(&table, spec, TRAINING_QUERIES, &mut rng(seed, 2));
        let stream = if stream_rows == 0 {
            Vec::new()
        } else {
            shifted_stream(&table, stream_rows, seed)
        };
        Self {
            table,
            pool,
            training,
            stream,
        }
    }
}

fn shifted_stream(table: &Table, rows: usize, seed: u64) -> Vec<f64> {
    let power = Dataset::Power.generate(rows, seed ^ 0x5eed);
    let source = datasets::project(&power, &POWER_COLUMNS);
    let from = source.bounding_box().expect("non-empty stream");
    let to = table.bounding_box().expect("non-empty table");
    let mut out = Vec::with_capacity(rows * DIMS);
    for (_, row) in source.rows() {
        for (i, &v) in row.iter().enumerate() {
            let (lo, hi) = from.interval(i);
            let (tlo, thi) = to.interval(i);
            let t = if hi > lo { (v - lo) / (hi - lo) } else { 0.5 };
            out.push(tlo + t * (thi - tlo));
        }
    }
    out
}
