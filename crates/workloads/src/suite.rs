//! The Table-I workload suite: 17 serverless functions, executable for
//! real against the in-memory backing services.

use std::fmt;

use microfaas_services::kvstore::{Command, KvStore, Reply};
use microfaas_services::mqueue::Broker;
use microfaas_services::objstore::ObjectStore;
use microfaas_services::sqldb::Database;
use microfaas_sim::Rng;

use crate::algorithms::aes128::cascading_aes128;
use crate::algorithms::deflate::{compress, inflate};
use crate::algorithms::htmlgen::generate_page;
use crate::algorithms::md5::cascading_md5;
use crate::algorithms::numeric::{float_ops, mat_mul};
use crate::algorithms::regex::Regex;
use crate::algorithms::sha256::cascading_sha256;

/// Workload class from Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadClass {
    /// Stresses the worker's CPU or memory.
    CpuBound,
    /// Dominated by traffic to a backing service.
    NetworkBound,
}

impl fmt::Display for WorkloadClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadClass::CpuBound => write!(f, "CPU- or RAM-bound"),
            WorkloadClass::NetworkBound => write!(f, "Network-bound"),
        }
    }
}

/// Where a function came from (Table I's asterisks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Provenance {
    /// Adapted from or inspired by FunctionBench.
    FunctionBench,
    /// Written by the paper's authors.
    Original,
}

/// One of the 17 workload functions (paper Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FunctionId {
    /// Floating-point trigonometric operations.
    FloatOps,
    /// Cascading SHA-256 hash calculations.
    CascSha,
    /// Cascading MD5 hash calculations.
    CascMd5,
    /// Large random matrix multiplication.
    MatMul,
    /// Dynamically generate and serve HTML.
    HtmlGen,
    /// Cascading AES-128 encryption/decryption.
    Aes128,
    /// Extract a DEFLATE-compressed string.
    Decompress,
    /// Find all regular-expression matches in the input.
    RegexSearch,
    /// Determine whether the input matches a regular expression.
    RegexMatch,
    /// Insert a Redis key-value record.
    RedisInsert,
    /// Update a Redis key-value record.
    RedisUpdate,
    /// Query the PostgreSQL server using SELECT.
    SqlSelect,
    /// Query the PostgreSQL server using UPDATE.
    SqlUpdate,
    /// Download from the MinIO cloud object store.
    CosGet,
    /// Upload to the MinIO cloud object store.
    CosPut,
    /// Send a message to a Kafka topic.
    MqProduce,
    /// Receive a message from a Kafka topic.
    MqConsume,
}

impl FunctionId {
    /// All 17 functions in Table-I order (CPU-bound column first).
    pub const ALL: [FunctionId; 17] = [
        FunctionId::FloatOps,
        FunctionId::CascSha,
        FunctionId::CascMd5,
        FunctionId::MatMul,
        FunctionId::HtmlGen,
        FunctionId::Aes128,
        FunctionId::Decompress,
        FunctionId::RegexSearch,
        FunctionId::RegexMatch,
        FunctionId::RedisInsert,
        FunctionId::RedisUpdate,
        FunctionId::SqlSelect,
        FunctionId::SqlUpdate,
        FunctionId::CosGet,
        FunctionId::CosPut,
        FunctionId::MqProduce,
        FunctionId::MqConsume,
    ];

    /// The function's dense intern index (its position in
    /// [`FunctionId::ALL`]). The simulator's struct-of-arrays job store
    /// keeps one byte per job instead of the full enum; round-trips
    /// through [`FunctionId::from_index`].
    ///
    /// # Examples
    ///
    /// ```
    /// use microfaas_workloads::FunctionId;
    ///
    /// for f in FunctionId::ALL {
    ///     assert_eq!(FunctionId::from_index(f.index()), f);
    /// }
    /// ```
    pub const fn index(self) -> u8 {
        self as u8
    }

    /// Reverses [`FunctionId::index`].
    ///
    /// # Panics
    ///
    /// Panics if `index` is not a valid intern index (≥ 17).
    pub const fn from_index(index: u8) -> FunctionId {
        FunctionId::ALL[index as usize]
    }

    /// The name used in the paper.
    pub fn name(self) -> &'static str {
        match self {
            FunctionId::FloatOps => "FloatOps",
            FunctionId::CascSha => "CascSHA",
            FunctionId::CascMd5 => "CascMD5",
            FunctionId::MatMul => "MatMul",
            FunctionId::HtmlGen => "HTMLGen",
            FunctionId::Aes128 => "AES128",
            FunctionId::Decompress => "Decompress",
            FunctionId::RegexSearch => "RegExSearch",
            FunctionId::RegexMatch => "RegExMatch",
            FunctionId::RedisInsert => "RedisInsert",
            FunctionId::RedisUpdate => "RedisUpdate",
            FunctionId::SqlSelect => "SQLSelect",
            FunctionId::SqlUpdate => "SQLUpdate",
            FunctionId::CosGet => "COSGet",
            FunctionId::CosPut => "COSPut",
            FunctionId::MqProduce => "MQProduce",
            FunctionId::MqConsume => "MQConsume",
        }
    }

    /// Table-I description.
    pub fn description(self) -> &'static str {
        match self {
            FunctionId::FloatOps => "floating-point trigonometric operations",
            FunctionId::CascSha => "cascading SHA256 hash calculations",
            FunctionId::CascMd5 => "cascading MD5 hash calculations",
            FunctionId::MatMul => "large random matrix multiplication",
            FunctionId::HtmlGen => "dynamically generate and serve HTML",
            FunctionId::Aes128 => "cascading AES128 encryption/decryption",
            FunctionId::Decompress => "extract a DEFLATE-compressed string",
            FunctionId::RegexSearch => "find all regular expr. matches in input",
            FunctionId::RegexMatch => "determine if input matches regular expr.",
            FunctionId::RedisInsert => "insert Redis key-value record",
            FunctionId::RedisUpdate => "update Redis key-value record",
            FunctionId::SqlSelect => "query our PostgreSQL server using SELECT",
            FunctionId::SqlUpdate => "query our PostgreSQL server using UPDATE",
            FunctionId::CosGet => "download from MinIO cloud object store",
            FunctionId::CosPut => "upload to MinIO cloud object store",
            FunctionId::MqProduce => "send message to Kafka topic",
            FunctionId::MqConsume => "receive message from Kafka topic",
        }
    }

    /// Table-I workload class.
    pub fn class(self) -> WorkloadClass {
        match self {
            FunctionId::FloatOps
            | FunctionId::CascSha
            | FunctionId::CascMd5
            | FunctionId::MatMul
            | FunctionId::HtmlGen
            | FunctionId::Aes128
            | FunctionId::Decompress
            | FunctionId::RegexSearch
            | FunctionId::RegexMatch => WorkloadClass::CpuBound,
            _ => WorkloadClass::NetworkBound,
        }
    }

    /// Table-I provenance (asterisked entries are FunctionBench-derived).
    pub fn provenance(self) -> Provenance {
        match self {
            FunctionId::FloatOps
            | FunctionId::MatMul
            | FunctionId::Aes128
            | FunctionId::Decompress
            | FunctionId::CosGet
            | FunctionId::CosPut => Provenance::FunctionBench,
            _ => Provenance::Original,
        }
    }
}

impl fmt::Display for FunctionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// The backing services a cluster hosts for network-bound functions
/// (each on a dedicated SBC in the paper's testbed).
#[derive(Debug, Default)]
pub struct ServiceBackends {
    /// Redis stand-in.
    pub kv: KvStore,
    /// PostgreSQL stand-in.
    pub sql: Database,
    /// MinIO stand-in.
    pub cos: ObjectStore,
    /// Kafka stand-in.
    pub mq: Broker,
}

impl ServiceBackends {
    /// Creates backends pre-seeded the way the paper's experiment setup
    /// seeds them: a SQL table with rows to select/update, an object to
    /// download, a topic with messages to consume, and KV keys to update.
    pub fn seeded() -> Self {
        let mut backends = ServiceBackends::default();
        backends
            .sql
            .execute("CREATE TABLE records (id INTEGER, payload TEXT, version INTEGER)")
            .expect("static schema");
        for i in 0..100 {
            backends
                .sql
                .execute(&format!(
                    "INSERT INTO records VALUES ({i}, 'payload-{i}', 0)"
                ))
                .expect("seeding insert");
        }
        backends.cos.create_bucket("faas").expect("fresh bucket");
        // 8 MiB object for COSGet, matching the calibrated transfer size.
        let blob: Vec<u8> = (0..8 * 1024 * 1024u32).map(|i| (i % 251) as u8).collect();
        backends
            .cos
            .put("faas", "dataset.bin", blob, "application/octet-stream")
            .expect("bucket exists");
        backends.mq.create_topic("events", 4).expect("fresh topic");
        for i in 0..64u32 {
            // Keyless produce round-robins so every partition holds
            // messages for MQConsume to find.
            backends
                .mq
                .produce("events", None, format!("seed-{i}").into_bytes())
                .expect("topic exists");
        }
        for i in 0..32 {
            backends.kv.execute(Command::Set(
                format!("existing:{i}"),
                format!("value-{i}").into_bytes(),
            ));
        }
        backends
    }
}

/// Errors surfaced while running a workload function for real.
#[derive(Debug)]
pub struct RunFunctionError {
    function: FunctionId,
    message: String,
}

impl fmt::Display for RunFunctionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} failed: {}", self.function.name(), self.message)
    }
}

impl std::error::Error for RunFunctionError {}

/// Result of actually running a function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionOutput {
    /// Which function ran.
    pub function: FunctionId,
    /// A short human-readable summary (the "return value" a FaaS platform
    /// would send back to the caller).
    pub summary: String,
    /// Bytes sent to a backing service over its wire protocol
    /// (0 for CPU-bound functions).
    pub request_bytes: u64,
    /// Bytes received back from the backing service.
    pub response_bytes: u64,
}

/// Executes `function` for real — the actual hashing, matrix math,
/// decompression, or service traffic — using `rng` for input generation
/// and `backends` for the network-bound functions.
///
/// The `scale` knob multiplies the input size; `1` is the benchmark
/// default used everywhere in this repository. The cluster *simulator*
/// does not call this (it charges calibrated service times); examples and
/// the Criterion benches do.
///
/// # Errors
///
/// Returns [`RunFunctionError`] if a backing service rejects a request —
/// which indicates corrupted seeding, not a caller mistake.
///
/// # Panics
///
/// Panics if `scale` is zero.
///
/// # Examples
///
/// ```
/// use microfaas_sim::Rng;
/// use microfaas_workloads::suite::{run_function, FunctionId, ServiceBackends};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut backends = ServiceBackends::seeded();
/// let mut rng = Rng::new(7);
/// let out = run_function(FunctionId::RegexMatch, 1, &mut rng, &mut backends)?;
/// assert_eq!(out.function, FunctionId::RegexMatch);
/// # Ok(())
/// # }
/// ```
pub fn run_function(
    function: FunctionId,
    scale: u32,
    rng: &mut Rng,
    backends: &mut ServiceBackends,
) -> Result<FunctionOutput, RunFunctionError> {
    assert!(scale > 0, "scale must be positive");
    let fail = |message: String| RunFunctionError { function, message };
    let mut request_bytes = 0u64;
    let mut response_bytes = 0u64;
    let summary = match function {
        FunctionId::FloatOps => {
            let acc = float_ops(50_000 * scale as u64);
            format!("accumulated {acc:.3}")
        }
        FunctionId::CascSha => {
            let mut input = vec![0u8; 4096];
            rng.fill_bytes(&mut input);
            let digest = cascading_sha256(&input, 500 * scale);
            format!("digest {:02x}{:02x}..", digest[0], digest[1])
        }
        FunctionId::CascMd5 => {
            let mut input = vec![0u8; 4096];
            rng.fill_bytes(&mut input);
            let digest = cascading_md5(&input, 800 * scale);
            format!("digest {:02x}{:02x}..", digest[0], digest[1])
        }
        FunctionId::MatMul => {
            let checksum = mat_mul(64 * scale as usize, rng.next_u64());
            format!("checksum {checksum:.3}")
        }
        FunctionId::HtmlGen => {
            let page = generate_page(100 * scale as usize);
            format!("generated {} bytes of html", page.len())
        }
        FunctionId::Aes128 => {
            let mut key = [0u8; 16];
            let mut iv = [0u8; 16];
            rng.fill_bytes(&mut key);
            rng.fill_bytes(&mut iv);
            let mut plaintext = vec![0u8; 4096];
            rng.fill_bytes(&mut plaintext);
            let ciphertext = cascading_aes128(&plaintext, &key, &iv, 20 * scale);
            format!("ciphertext {} bytes", ciphertext.len())
        }
        FunctionId::Decompress => {
            // Build a compressible document, compress it, then time the
            // extraction (the workload under test is the inflate).
            let sentence = b"serverless functions are short lived and stateless ";
            let document: Vec<u8> = sentence
                .iter()
                .copied()
                .cycle()
                .take(64 * 1024 * scale as usize)
                .collect();
            let packed = compress(&document);
            let unpacked = inflate(&packed).map_err(|e| fail(e.to_string()))?;
            format!("inflated {} -> {} bytes", packed.len(), unpacked.len())
        }
        FunctionId::RegexSearch => {
            let re =
                Regex::new(r"[a-z]+@[a-z]+\.(com|org|net)").map_err(|e| fail(e.to_string()))?;
            let text = synth_log_text(64 * 1024 * scale as usize, rng);
            let matches = re.find_all(&text);
            format!("found {} matches", matches.len())
        }
        FunctionId::RegexMatch => {
            let re = Regex::new(r"^(GET|POST) /[a-z0-9/]* HTTP/1\.[01]$")
                .map_err(|e| fail(e.to_string()))?;
            let candidates = 200 * scale;
            let mut hits = 0;
            for i in 0..candidates {
                let line = if rng.chance(0.5) {
                    format!("GET /api/v{}/items HTTP/1.1", i % 3)
                } else {
                    format!("FETCH /nope {i}")
                };
                if re.is_match(&line) {
                    hits += 1;
                }
            }
            format!("{hits}/{candidates} lines matched")
        }
        FunctionId::RedisInsert => {
            // Travel the real RESP wire path, as the MicroPython client
            // library would.
            let key = format!("job:{}", rng.next_u64());
            let mut value = vec![0u8; 128];
            rng.fill_bytes(&mut value);
            let request = Command::Set(key.clone(), value).encode();
            request_bytes = request.len() as u64;
            let raw_reply = backends.kv.handle_raw(&request);
            response_bytes = raw_reply.len() as u64;
            match Reply::decode(&raw_reply) {
                Ok(Reply::Simple(_)) => format!("inserted {key}"),
                other => return Err(fail(format!("unexpected reply {other:?}"))),
            }
        }
        FunctionId::RedisUpdate => {
            let key = format!("existing:{}", rng.index(32));
            let value = format!("updated-{}", rng.next_u64()).into_bytes();
            let request = Command::Set(key.clone(), value).encode();
            request_bytes = request.len() as u64;
            let raw_reply = backends.kv.handle_raw(&request);
            response_bytes = raw_reply.len() as u64;
            match Reply::decode(&raw_reply) {
                Ok(Reply::Simple(_)) => format!("updated {key}"),
                other => return Err(fail(format!("unexpected reply {other:?}"))),
            }
        }
        FunctionId::SqlSelect => {
            let id = rng.index(100);
            let request = format!("SELECT payload FROM records WHERE id = {id}");
            request_bytes = request.len() as u64;
            let raw_reply = backends.sql.handle_raw(request.as_bytes());
            response_bytes = raw_reply.len() as u64;
            if raw_reply.starts_with(b"!ERROR") {
                return Err(fail(String::from_utf8_lossy(&raw_reply).into_owned()));
            }
            let rows = raw_reply.iter().filter(|&&b| b == b'\n').count() - 1;
            format!("selected {rows} rows")
        }
        FunctionId::SqlUpdate => {
            let id = rng.index(100);
            let version = rng.range_u64(1, 1_000_000);
            let request = format!("UPDATE records SET version = {version} WHERE id = {id}");
            request_bytes = request.len() as u64;
            let raw_reply = backends.sql.handle_raw(request.as_bytes());
            response_bytes = raw_reply.len() as u64;
            let reply_text = String::from_utf8_lossy(&raw_reply);
            match reply_text.strip_prefix("OK ") {
                Some(n) => format!("updated {} rows", n.trim()),
                None => return Err(fail(reply_text.into_owned())),
            }
        }
        FunctionId::CosGet => {
            let (data, meta) = backends
                .cos
                .get("faas", "dataset.bin")
                .map_err(|e| fail(e.to_string()))?;
            request_bytes = 64; // GET request line + headers equivalent
            response_bytes = data.len() as u64;
            format!("downloaded {} bytes (etag {:016x})", data.len(), meta.etag)
        }
        FunctionId::CosPut => {
            let key = format!("uploads/{}.bin", rng.next_u64());
            let mut blob = vec![0u8; 2 * 1024 * 1024];
            rng.fill_bytes(&mut blob);
            request_bytes = blob.len() as u64 + 64;
            let meta = backends
                .cos
                .put("faas", &key, blob, "application/octet-stream")
                .map_err(|e| fail(e.to_string()))?;
            response_bytes = 32; // etag + status equivalent
            format!("uploaded {} bytes to {key}", meta.size)
        }
        FunctionId::MqProduce => {
            let mut payload = vec![0u8; 1_024];
            rng.fill_bytes(&mut payload);
            request_bytes = payload.len() as u64 + 32;
            let (partition, offset) = backends
                .mq
                .produce("events", None, payload)
                .map_err(|e| fail(e.to_string()))?;
            response_bytes = 16; // ack with (partition, offset)
            format!("produced to partition {partition} at offset {offset}")
        }
        FunctionId::MqConsume => {
            let partition = rng.index(4) as u32;
            request_bytes = 32; // fetch request
            let batch = backends
                .mq
                .consume("workers", "events", partition, 16)
                .map_err(|e| fail(e.to_string()))?;
            response_bytes = batch.iter().map(|m| m.value.len() as u64 + 16).sum();
            format!(
                "consumed {} messages from partition {partition}",
                batch.len()
            )
        }
    };
    Ok(FunctionOutput {
        function,
        summary,
        request_bytes,
        response_bytes,
    })
}

/// Generates pseudo-log text sprinkled with email addresses for the regex
/// workloads.
fn synth_log_text(len: usize, rng: &mut Rng) -> String {
    let words = [
        "request", "handled", "by", "worker", "node", "in", "cluster", "with", "status", "ok",
        "error", "retry", "timeout",
    ];
    let mut text = String::with_capacity(len + 32);
    while text.len() < len {
        if rng.chance(0.05) {
            let user = words[rng.index(words.len())];
            let host = words[rng.index(words.len())];
            let tld = ["com", "org", "net"][rng.index(3)];
            text.push_str(&format!("{user}@{host}.{tld} "));
        } else {
            text.push_str(words[rng.index(words.len())]);
            text.push(' ');
        }
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_seventeen_functions() {
        assert_eq!(FunctionId::ALL.len(), 17);
        let names: std::collections::BTreeSet<&str> =
            FunctionId::ALL.iter().map(|f| f.name()).collect();
        assert_eq!(names.len(), 17, "names must be unique");
    }

    #[test]
    fn class_split_matches_table_one() {
        let cpu = FunctionId::ALL
            .iter()
            .filter(|f| f.class() == WorkloadClass::CpuBound)
            .count();
        assert_eq!(cpu, 9, "Table I lists 9 CPU/RAM-bound functions");
        assert_eq!(FunctionId::ALL.len() - cpu, 8);
    }

    #[test]
    fn six_functions_are_functionbench_derived() {
        let fb = FunctionId::ALL
            .iter()
            .filter(|f| f.provenance() == Provenance::FunctionBench)
            .count();
        assert_eq!(fb, 6, "Table I stars six FunctionBench-derived functions");
    }

    #[test]
    fn every_function_runs_for_real() {
        let mut backends = ServiceBackends::seeded();
        let mut rng = Rng::new(99);
        for function in FunctionId::ALL {
            let out = run_function(function, 1, &mut rng, &mut backends)
                .unwrap_or_else(|e| panic!("{function} must run: {e}"));
            assert!(!out.summary.is_empty());
        }
    }

    #[test]
    fn functions_are_repeatable_with_same_seed() {
        let run = || {
            let mut backends = ServiceBackends::seeded();
            let mut rng = Rng::new(5);
            run_function(FunctionId::RegexSearch, 1, &mut rng, &mut backends)
                .expect("runs")
                .summary
        };
        assert_eq!(run(), run());
    }

    /// The regex workloads' outputs, captured from the engine that ran
    /// one NFA simulation per start offset. The single-pass scan must
    /// reproduce them: the summaries, and every `RegExSearch` range
    /// (folded into an FNV-1a hash).
    #[test]
    fn regex_outputs_are_pinned() {
        let pinned = [
            (
                1,
                "found 515 matches",
                "98/200 lines matched",
                0x1c67_7568_3383_468c,
            ),
            (
                7,
                "found 495 matches",
                "94/200 lines matched",
                0xc68c_0362_b539_56d4,
            ),
            (
                2022,
                "found 540 matches",
                "107/200 lines matched",
                0x6bee_e50a_7859_f0e3,
            ),
        ];
        for (seed, search, matched, ranges_hash) in pinned {
            for (function, summary) in [
                (FunctionId::RegexSearch, search),
                (FunctionId::RegexMatch, matched),
            ] {
                let mut backends = ServiceBackends::seeded();
                let mut rng = Rng::new(seed);
                let out = run_function(function, 1, &mut rng, &mut backends).expect("runs");
                assert_eq!(out.summary, summary, "{function} at seed {seed}");
            }
            let re = Regex::new(r"[a-z]+@[a-z]+\.(com|org|net)").expect("valid pattern");
            let text = synth_log_text(64 * 1024, &mut Rng::new(seed));
            let hash = re
                .find_all(&text)
                .into_iter()
                .flat_map(|(start, end)| [start as u64, end as u64])
                .fold(0xcbf2_9ce4_8422_2325_u64, |h, v| {
                    (h ^ v).wrapping_mul(0x0100_0000_01b3)
                });
            assert_eq!(hash, ranges_hash, "RegExSearch ranges at seed {seed}");
        }
    }

    #[test]
    fn redis_update_touches_existing_keys() {
        let mut backends = ServiceBackends::seeded();
        let before = backends.kv.len();
        let mut rng = Rng::new(3);
        run_function(FunctionId::RedisUpdate, 1, &mut rng, &mut backends).expect("runs");
        assert_eq!(backends.kv.len(), before, "update must not create keys");
        run_function(FunctionId::RedisInsert, 1, &mut rng, &mut backends).expect("runs");
        assert_eq!(backends.kv.len(), before + 1, "insert must create a key");
    }

    #[test]
    fn network_bound_functions_report_wire_bytes() {
        let mut backends = ServiceBackends::seeded();
        let mut rng = Rng::new(21);
        for function in FunctionId::ALL {
            let out = run_function(function, 1, &mut rng, &mut backends).expect("runs");
            match function.class() {
                WorkloadClass::NetworkBound => {
                    assert!(
                        out.request_bytes > 0 && out.response_bytes > 0,
                        "{function} must report wire traffic, got {}/{}",
                        out.request_bytes,
                        out.response_bytes
                    );
                }
                WorkloadClass::CpuBound => {
                    assert_eq!((out.request_bytes, out.response_bytes), (0, 0));
                }
            }
        }
    }

    #[test]
    fn cosget_response_is_the_eight_mib_object() {
        let mut backends = ServiceBackends::seeded();
        let mut rng = Rng::new(22);
        let out = run_function(FunctionId::CosGet, 1, &mut rng, &mut backends).expect("runs");
        assert_eq!(out.response_bytes, 8 * 1024 * 1024);
    }

    #[test]
    fn sql_update_affects_exactly_one_row() {
        let mut backends = ServiceBackends::seeded();
        let mut rng = Rng::new(4);
        let out = run_function(FunctionId::SqlUpdate, 1, &mut rng, &mut backends).expect("runs");
        assert_eq!(out.summary, "updated 1 rows");
    }

    #[test]
    fn mq_consume_drains_seeded_messages() {
        let mut backends = ServiceBackends::seeded();
        let mut rng = Rng::new(6);
        let out = run_function(FunctionId::MqConsume, 1, &mut rng, &mut backends).expect("runs");
        assert!(out.summary.starts_with("consumed"));
    }

    #[test]
    fn display_uses_paper_names() {
        assert_eq!(FunctionId::CascSha.to_string(), "CascSHA");
        assert_eq!(FunctionId::CosGet.to_string(), "COSGet");
    }

    #[test]
    #[should_panic(expected = "scale must be positive")]
    fn zero_scale_panics() {
        let mut backends = ServiceBackends::default();
        let mut rng = Rng::new(0);
        let _ = run_function(FunctionId::FloatOps, 0, &mut rng, &mut backends);
    }
}
