//! The crate's one crash-safe record log: every submitted plan, every
//! completed job result, and every lifecycle transition, flushed
//! per-record so a `kill -9` loses at most the record being appended.
//!
//! The daemon keeps a multi-plan journal (`--journal`), and
//! `fleet_sweep --dist --checkpoint PATH` keeps a one-plan journal: a
//! `Submitted` record, the plan's `Result` records, and `Completed` once
//! the sweep finishes. A checkpoint holding another plan is refused with
//! [`JournalError::PlanMismatch`], and a file in the retired checkpoint
//! format fails the header check below; neither is touched.
//!
//! The damage policy: a torn record at the exact tail of the file (the
//! writer died mid-append) is tolerated and dropped on load, while the
//! same damage anywhere earlier fails the load, because a mid-file hole
//! means the file as a whole is not trustworthy.
//!
//! # File format (v3)
//!
//! ```text
//! magic   b"ZHUYIDJ3"                        (8 bytes)
//! records u32-LE length
//!         u32-LE FNV-1a-32 payload checksum  (see `wire::payload_checksum`)
//!         payload: 1-byte record tag + fields
//! ```
//!
//! Record payloads reuse the wire codec's primitives, so every persisted
//! job and result is byte-identical to its in-flight encoding:
//!
//! ```text
//! 1 Submitted {fingerprint u64, client str, options, jobs}
//! 2 Result    {fingerprint u64, job_result}
//! 3 Completed {fingerprint u64}
//! 4 Cancelled {fingerprint u64}
//! 5 Fetched   {fingerprint u64}
//! ```
//!
//! v3 encodes `Submitted`'s options as one bool (`per_rate`), following
//! wire protocol v9. Older journals carried more there (v2 `ZHUYIDJ2` a
//! second bool, v1 `ZHUYIDJ1` two `u32` counts besides), so [`load`]
//! refuses their header, naming it, rather than misread their plans.
//!
//! [`replay`] folds a loaded record stream back into per-plan state:
//! a restarted daemon re-queues every plan without a `Completed` record,
//! seeds the resumed sweep with the plan's journaled results (so finished
//! jobs are never re-simulated), and retains completed-but-unfetched
//! results for their clients. [`JournalWriter::resume`] then compacts the
//! log — fully retired plans (fetched or cancelled) are dropped, live
//! ones are rewritten — via a temp file and an atomic rename, so a crash
//! mid-compaction leaves the old journal intact.

use crate::wire::{self, Reader, WireError};
use std::collections::BTreeSet;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use zhuyi_fleet::{ExecOptions, JobResult, SweepJob, SweepPlan};

const MAGIC: &[u8; 8] = b"ZHUYIDJ3";

/// Errors raised while writing or loading a journal.
#[derive(Debug)]
pub enum JournalError {
    /// The underlying file failed.
    Io(std::io::Error),
    /// The file is not a journal, or a non-tail record is corrupt.
    Corrupt(String),
    /// A checkpoint journal holds a different plan.
    PlanMismatch {
        /// Fingerprint of the plan the file holds.
        found: u64,
        /// Fingerprint of the sweep being resumed.
        expected: u64,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal i/o error: {e}"),
            JournalError::Corrupt(what) => write!(f, "corrupt journal: {what}"),
            JournalError::PlanMismatch { found, expected } => write!(
                f,
                "checkpoint fingerprint {found:#018x} does not match this sweep \
                 ({expected:#018x}); it records a different plan"
            ),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// FNV-1a 64-bit over the plan's wire-encoded jobs — a plan's identity
/// in the journal, the daemon's dedup index and a checkpoint. Folds one
/// reused per-job buffer into the hash state, so memory stays O(1) in
/// the plan size.
///
/// `_options` is not folded in: no execution option changes an exported
/// byte, so no option is part of a plan's identity.
pub fn plan_fingerprint(plan: &SweepPlan, _options: ExecOptions) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let fold = |hash: &mut u64, bytes: &[u8]| {
        for &b in bytes {
            *hash ^= u64::from(b);
            *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let mut buf = Vec::with_capacity(64);
    for job in plan.jobs() {
        buf.clear();
        wire::put_job(&mut buf, job);
        fold(&mut hash, &buf);
    }
    hash
}

/// One durable event in the daemon's plan lifecycle.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// A plan was admitted into the queue.
    Submitted {
        /// The plan's identity ([`plan_fingerprint`]).
        fingerprint: u64,
        /// The submitting client's name (lease bookkeeping).
        client: String,
        /// Plan-wide execution options.
        options: ExecOptions,
        /// The plan's jobs, ascending by id from 0.
        jobs: Vec<SweepJob>,
    },
    /// One job of a running plan finished.
    Result {
        /// The owning plan.
        fingerprint: u64,
        /// The finished job and its outcome (boxed — by far the largest
        /// variant).
        result: Box<JobResult>,
    },
    /// Every job of the plan finished; results are ready to fetch.
    Completed {
        /// The completed plan.
        fingerprint: u64,
    },
    /// The plan was cancelled while queued (or its lease expired).
    Cancelled {
        /// The cancelled plan.
        fingerprint: u64,
    },
    /// The client collected the completed plan's results; the plan can be
    /// dropped at the next compaction.
    Fetched {
        /// The fetched plan.
        fingerprint: u64,
    },
}

impl JournalRecord {
    /// The plan this record belongs to.
    pub fn fingerprint(&self) -> u64 {
        match self {
            JournalRecord::Submitted { fingerprint, .. }
            | JournalRecord::Result { fingerprint, .. }
            | JournalRecord::Completed { fingerprint }
            | JournalRecord::Cancelled { fingerprint }
            | JournalRecord::Fetched { fingerprint } => *fingerprint,
        }
    }
}

fn encode_record(record: &JournalRecord) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    match record {
        JournalRecord::Submitted {
            fingerprint,
            client,
            options,
            jobs,
        } => {
            out.push(1);
            wire::put_u64(&mut out, *fingerprint);
            wire::put_str(&mut out, client);
            wire::put_exec_options(&mut out, *options);
            wire::put_u32(&mut out, jobs.len() as u32);
            for job in jobs {
                wire::put_job(&mut out, job);
            }
        }
        JournalRecord::Result {
            fingerprint,
            result,
        } => {
            out.push(2);
            wire::put_u64(&mut out, *fingerprint);
            wire::put_job_result(&mut out, result);
        }
        JournalRecord::Completed { fingerprint } => {
            out.push(3);
            wire::put_u64(&mut out, *fingerprint);
        }
        JournalRecord::Cancelled { fingerprint } => {
            out.push(4);
            wire::put_u64(&mut out, *fingerprint);
        }
        JournalRecord::Fetched { fingerprint } => {
            out.push(5);
            wire::put_u64(&mut out, *fingerprint);
        }
    }
    out
}

fn decode_record(payload: &[u8]) -> Result<JournalRecord, WireError> {
    let mut r = Reader::new(payload);
    let record = match r.u8()? {
        1 => {
            let fingerprint = r.u64()?;
            let client = r.string()?;
            let options = wire::exec_options(&mut r)?;
            let n = r.u32()? as usize;
            // Capacity capped against untrusted counts, as everywhere in
            // the wire codec.
            let mut jobs = Vec::with_capacity(n.min(1 << 20));
            for _ in 0..n {
                jobs.push(wire::job(&mut r)?);
            }
            JournalRecord::Submitted {
                fingerprint,
                client,
                options,
                jobs,
            }
        }
        2 => JournalRecord::Result {
            fingerprint: r.u64()?,
            result: Box::new(wire::job_result(&mut r)?),
        },
        3 => JournalRecord::Completed {
            fingerprint: r.u64()?,
        },
        4 => JournalRecord::Cancelled {
            fingerprint: r.u64()?,
        },
        5 => JournalRecord::Fetched {
            fingerprint: r.u64()?,
        },
        other => return Err(WireError::Malformed(format!("journal record tag {other}"))),
    };
    r.finish()?;
    Ok(record)
}

/// Append-only journal writer; see the module docs for the format.
#[derive(Debug)]
pub struct JournalWriter {
    writer: BufWriter<File>,
    records: usize,
}

impl JournalWriter {
    /// Creates (or truncates) a journal and writes the header.
    ///
    /// # Errors
    ///
    /// Propagates file I/O failures.
    pub fn create(path: &Path) -> Result<Self, JournalError> {
        let file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        let mut writer = BufWriter::new(file);
        writer.write_all(MAGIC)?;
        writer.flush()?;
        Ok(Self { writer, records: 0 })
    }

    /// Opens an existing journal for appending after `recovered` records
    /// were loaded from it: the records are rewritten to a sibling temp
    /// file (discarding any torn tail and anything compaction dropped)
    /// which then atomically renames over the original — a crash
    /// mid-rewrite leaves the old journal untouched.
    ///
    /// # Errors
    ///
    /// Propagates file I/O failures.
    pub fn resume(path: &Path, recovered: &[JournalRecord]) -> Result<Self, JournalError> {
        let mut tmp = path.as_os_str().to_os_string();
        tmp.push(".rewrite");
        let tmp = PathBuf::from(tmp);
        let mut writer = Self::create(&tmp)?;
        for record in recovered {
            writer.append(record)?;
        }
        // append() flushed every record to the OS; the rename makes the
        // compacted file the journal in one step. The open handle follows
        // the inode, so subsequent appends land in `path`.
        std::fs::rename(&tmp, path)?;
        Ok(writer)
    }

    /// Appends one record and flushes it to the OS.
    ///
    /// # Errors
    ///
    /// Propagates file I/O failures.
    pub fn append(&mut self, record: &JournalRecord) -> Result<(), JournalError> {
        let payload = encode_record(record);
        self.writer
            .write_all(&(payload.len() as u32).to_le_bytes())?;
        self.writer
            .write_all(&wire::payload_checksum(&payload).to_le_bytes())?;
        self.writer.write_all(&payload)?;
        self.writer.flush()?;
        self.records += 1;
        Ok(())
    }

    /// Records appended so far (including any re-appended on resume).
    pub fn records(&self) -> usize {
        self.records
    }
}

/// Loads a journal's records, validating every record against its stored
/// checksum. A truncated or checksum-failing *final* record is silently
/// dropped — that is what a crash mid-append looks like.
///
/// # Errors
///
/// [`JournalError::Corrupt`] for bad magic (naming the header found
/// when it is another version's), a checksum failure on any non-tail
/// record, or a checksum-valid record that still does not decode
/// (writer/reader bug or forged file — tolerating it would hide real
/// corruption).
pub fn load(path: &Path) -> Result<Vec<JournalRecord>, JournalError> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    match bytes.get(..MAGIC.len()) {
        Some(header) if header == MAGIC => {}
        Some(header) if header.starts_with(b"ZHUYID") => {
            return Err(JournalError::Corrupt(format!(
                "unsupported header {} (this build reads {})",
                header.escape_ascii(),
                MAGIC.escape_ascii()
            )))
        }
        _ => return Err(JournalError::Corrupt("bad or missing header".into())),
    }
    let mut records = Vec::new();
    let mut pos = MAGIC.len();
    while pos < bytes.len() {
        if pos + 8 > bytes.len() {
            break; // torn record header
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let expected = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4 bytes"));
        let start = pos + 8;
        let Some(end) = start.checked_add(len).filter(|&end| end <= bytes.len()) else {
            break; // torn record body
        };
        let payload = &bytes[start..end];
        if wire::payload_checksum(payload) != expected {
            if end == bytes.len() {
                break; // torn write of the final record
            }
            return Err(JournalError::Corrupt(format!(
                "record at byte {pos} fails its checksum"
            )));
        }
        match decode_record(payload) {
            Ok(record) => records.push(record),
            Err(WireError::Malformed(what)) => return Err(JournalError::Corrupt(what)),
            Err(e) => return Err(JournalError::Corrupt(e.to_string())),
        }
        pos = end;
    }
    Ok(records)
}

/// One plan's folded state after [`replay`].
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayedPlan {
    /// The plan's identity.
    pub fingerprint: u64,
    /// The client that submitted it.
    pub client: String,
    /// Plan-wide execution options.
    pub options: ExecOptions,
    /// The plan's jobs, ascending by id from 0.
    pub jobs: Vec<SweepJob>,
    /// Journaled results in file order, deduplicated by job id (first
    /// occurrence wins — the same dedup as the coordinator's merge).
    pub results: Vec<JobResult>,
    /// A `Completed` record was journaled.
    pub completed: bool,
    /// A `Cancelled` record was journaled.
    pub cancelled: bool,
    /// A `Fetched` record was journaled (the plan can be compacted away).
    pub fetched: bool,
}

impl ReplayedPlan {
    /// Whether a restarted daemon still owes work or results for this
    /// plan: unfinished plans must resume, completed-but-unfetched ones
    /// must keep their results available to the client.
    pub fn live(&self) -> bool {
        !(self.cancelled || (self.completed && self.fetched))
    }

    /// Re-encodes this plan's surviving history as journal records, in
    /// the order a fresh daemon would have written them — what
    /// [`JournalWriter::resume`] compaction appends for live plans.
    pub fn to_records(&self) -> Vec<JournalRecord> {
        let mut records = vec![JournalRecord::Submitted {
            fingerprint: self.fingerprint,
            client: self.client.clone(),
            options: self.options,
            jobs: self.jobs.clone(),
        }];
        for result in &self.results {
            records.push(JournalRecord::Result {
                fingerprint: self.fingerprint,
                result: Box::new(result.clone()),
            });
        }
        if self.completed {
            records.push(JournalRecord::Completed {
                fingerprint: self.fingerprint,
            });
        }
        if self.cancelled {
            records.push(JournalRecord::Cancelled {
                fingerprint: self.fingerprint,
            });
        }
        if self.fetched {
            records.push(JournalRecord::Fetched {
                fingerprint: self.fingerprint,
            });
        }
        records
    }
}

/// Folds a loaded record stream into per-plan state, in submission
/// order. Records for a fingerprint with no `Submitted` record are
/// ignored (the journal is append-only, so they cannot occur without a
/// writer bug; dropping them is the conservative recovery). A repeated
/// `Submitted` for a known fingerprint is likewise ignored — submission
/// is idempotent all the way down.
pub fn replay(records: &[JournalRecord]) -> Vec<ReplayedPlan> {
    let mut plans: Vec<ReplayedPlan> = Vec::new();
    let mut seen_results: Vec<BTreeSet<u64>> = Vec::new();
    for record in records {
        let slot = plans
            .iter()
            .position(|p| p.fingerprint == record.fingerprint());
        match record {
            JournalRecord::Submitted {
                fingerprint,
                client,
                options,
                jobs,
            } => {
                if slot.is_none() {
                    plans.push(ReplayedPlan {
                        fingerprint: *fingerprint,
                        client: client.clone(),
                        options: *options,
                        jobs: jobs.clone(),
                        results: Vec::new(),
                        completed: false,
                        cancelled: false,
                        fetched: false,
                    });
                    seen_results.push(BTreeSet::new());
                }
            }
            JournalRecord::Result { result, .. } => {
                if let Some(i) = slot {
                    if seen_results[i].insert(result.job.id.0) {
                        plans[i].results.push((**result).clone());
                    }
                }
            }
            JournalRecord::Completed { .. } => {
                if let Some(i) = slot {
                    plans[i].completed = true;
                }
            }
            JournalRecord::Cancelled { .. } => {
                if let Some(i) = slot {
                    plans[i].cancelled = true;
                }
            }
            JournalRecord::Fetched { .. } => {
                if let Some(i) = slot {
                    plans[i].fetched = true;
                }
            }
        }
    }
    plans
}

#[cfg(test)]
mod tests {
    use super::*;
    use av_core::units::Seconds;
    use av_scenarios::catalog::ScenarioId;
    use zhuyi_fleet::store::ProbeOutcome;
    use zhuyi_fleet::{JobId, JobKind, JobOutcome, JobSpec, RateSpec, SweepJob};

    fn probe_job(id: u64) -> SweepJob {
        SweepJob {
            id: JobId(id),
            spec: JobSpec {
                scenario: ScenarioId::CutOut.into(),
                seed: id,
                kind: JobKind::Probe {
                    plan: RateSpec::Uniform(4.0),
                    keep_trace: false,
                },
            },
        }
    }

    fn probe_result(id: u64, collided: bool) -> JobResult {
        JobResult {
            job: probe_job(id),
            outcome: JobOutcome::Probe(ProbeOutcome {
                collided,
                collision_time: None,
                collision_actor: None,
                min_clearance: Some(av_core::units::Meters(1.5)),
                duration: Seconds(25.0),
                trace_csv: None,
            }),
        }
    }

    fn sample_records() -> Vec<JournalRecord> {
        vec![
            JournalRecord::Submitted {
                fingerprint: 0xaa,
                client: "client-a".into(),
                options: ExecOptions::default(),
                jobs: vec![probe_job(0), probe_job(1)],
            },
            JournalRecord::Submitted {
                fingerprint: 0xbb,
                client: "client-b".into(),
                options: ExecOptions { per_rate: true },
                jobs: vec![probe_job(0)],
            },
            JournalRecord::Result {
                fingerprint: 0xaa,
                result: Box::new(probe_result(0, true)),
            },
            JournalRecord::Result {
                fingerprint: 0xaa,
                result: Box::new(probe_result(1, false)),
            },
            JournalRecord::Completed { fingerprint: 0xaa },
            JournalRecord::Cancelled { fingerprint: 0xbb },
            JournalRecord::Fetched { fingerprint: 0xaa },
        ]
    }

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("zhuyi-distd-jrnl-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join("journal.bin")
    }

    #[test]
    fn write_load_round_trip() {
        let path = tmp("roundtrip");
        let originals = sample_records();
        let mut w = JournalWriter::create(&path).expect("create");
        for record in &originals {
            w.append(record).expect("append");
        }
        assert_eq!(w.records(), originals.len());
        drop(w);
        assert_eq!(load(&path).expect("load"), originals);
    }

    #[test]
    fn replay_folds_plans_and_compaction_drops_retired_ones() {
        let plans = replay(&sample_records());
        assert_eq!(plans.len(), 2);
        assert_eq!(plans[0].fingerprint, 0xaa);
        assert!(plans[0].completed && plans[0].fetched && !plans[0].live());
        assert_eq!(plans[0].results.len(), 2);
        assert_eq!(plans[1].fingerprint, 0xbb);
        assert!(plans[1].cancelled && !plans[1].live());

        // Compaction: only live plans survive the rewrite.
        let path = tmp("compact");
        let live: Vec<JournalRecord> = plans
            .iter()
            .filter(|p| p.live())
            .flat_map(|p| p.to_records())
            .collect();
        drop(JournalWriter::resume(&path, &live).expect("resume"));
        assert!(load(&path).expect("reload").is_empty());
    }

    #[test]
    fn replay_dedups_results_and_repeated_submits() {
        let records = vec![
            JournalRecord::Submitted {
                fingerprint: 1,
                client: "c".into(),
                options: ExecOptions::default(),
                jobs: vec![probe_job(0)],
            },
            JournalRecord::Submitted {
                fingerprint: 1,
                client: "other".into(),
                options: ExecOptions::default(),
                jobs: vec![probe_job(0)],
            },
            JournalRecord::Result {
                fingerprint: 1,
                result: Box::new(probe_result(0, true)),
            },
            JournalRecord::Result {
                fingerprint: 1,
                result: Box::new(probe_result(0, false)),
            },
            // Orphan records for a never-submitted plan are dropped.
            JournalRecord::Result {
                fingerprint: 9,
                result: Box::new(probe_result(0, false)),
            },
            JournalRecord::Completed { fingerprint: 9 },
        ];
        let plans = replay(&records);
        assert_eq!(plans.len(), 1);
        assert_eq!(plans[0].client, "c", "first submit wins");
        assert_eq!(plans[0].results, vec![probe_result(0, true)]);
        assert!(plans[0].live());
    }

    #[test]
    fn torn_tail_is_dropped() {
        let path = tmp("torn");
        let originals = sample_records();
        let mut w = JournalWriter::create(&path).expect("create");
        for record in &originals {
            w.append(record).expect("append");
        }
        drop(w);
        let bytes = std::fs::read(&path).expect("read");
        std::fs::write(&path, &bytes[..bytes.len() - 3]).expect("tear");
        let loaded = load(&path).expect("load survives torn tail");
        assert_eq!(loaded, originals[..originals.len() - 1]);
    }

    #[test]
    fn bad_magic_is_refused() {
        let path = tmp("magic");
        std::fs::write(&path, b"not a journal").expect("clobber");
        assert!(matches!(load(&path), Err(JournalError::Corrupt(_))));
    }

    #[test]
    fn v1_journals_are_refused_not_misparsed() {
        // Well-formed older journals: the old header and one checksummed
        // Submitted record in that version's option encoding. v1 has a
        // trace-recording bool and two u32 counts (lane chunk width,
        // seed-block count), v2 that bool and `per_rate`.
        let v1_options = [&[0u8][..], &0u32.to_le_bytes(), &4u32.to_le_bytes()].concat();
        for (magic, options) in [("ZHUYIDJ1", v1_options), ("ZHUYIDJ2", vec![0, 1])] {
            let mut payload = vec![1u8];
            wire::put_u64(&mut payload, 0xaa);
            wire::put_str(&mut payload, "client-a");
            payload.extend_from_slice(&options);
            wire::put_u32(&mut payload, 1);
            wire::put_job(&mut payload, &probe_job(0));
            let mut bytes = magic.as_bytes().to_vec();
            bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            bytes.extend_from_slice(&wire::payload_checksum(&payload).to_le_bytes());
            bytes.extend_from_slice(&payload);
            let path = tmp(magic);
            std::fs::write(&path, &bytes).expect("write old journal");
            match load(&path) {
                Err(JournalError::Corrupt(what)) => {
                    assert!(what.contains(&format!("header {magic}")), "{what}");
                    assert!(what.contains("reads ZHUYIDJ3"), "{what}");
                }
                other => panic!("a {magic} journal must be refused, got {other:?}"),
            }
            assert_eq!(std::fs::read(&path).expect("reread"), bytes, "{magic}");
        }
    }

    /// Deterministic xorshift64* for the corruption fuzzers below.
    fn xorshift(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// The fuzzers' shared oracle: whatever `load` accepts must be a
    /// prefix of what was written — corruption may cost records or fail
    /// the load, but can never change or invent one.
    fn assert_prefix_of_originals(loaded: &[JournalRecord], originals: &[JournalRecord]) {
        assert!(loaded.len() <= originals.len());
        for (got, want) in loaded.iter().zip(originals) {
            assert_eq!(got, want, "accepted record must be byte-faithful");
        }
    }

    #[test]
    fn truncation_fuzz_never_panics_and_never_lies() {
        let path = tmp("fuzz-trunc");
        let originals = sample_records();
        let mut w = JournalWriter::create(&path).expect("create");
        for record in &originals {
            w.append(record).expect("append");
        }
        drop(w);
        let bytes = std::fs::read(&path).expect("read");
        let mut rng = 0x5eed_1064_u64;
        for _ in 0..200 {
            let cut = (xorshift(&mut rng) as usize) % (bytes.len() + 1);
            std::fs::write(&path, &bytes[..cut]).expect("truncate");
            match load(&path) {
                Ok(loaded) => {
                    assert_prefix_of_originals(&loaded, &originals);
                    // Replaying a damaged-but-accepted stream never
                    // panics either (this is what a restarting daemon
                    // actually does with the load).
                    let _ = replay(&loaded);
                }
                Err(JournalError::Corrupt(_)) => {} // header lost — fine
                Err(e) => panic!("unexpected error on truncation at {cut}: {e}"),
            }
        }
    }

    #[test]
    fn bitflip_fuzz_never_panics_and_never_lies() {
        let path = tmp("fuzz-flip");
        let originals = sample_records();
        let mut w = JournalWriter::create(&path).expect("create");
        for record in &originals {
            w.append(record).expect("append");
        }
        drop(w);
        let bytes = std::fs::read(&path).expect("read");
        let mut rng = 0xf1ea_1064_u64;
        for _ in 0..300 {
            let mut mutated = bytes.clone();
            let bit = (xorshift(&mut rng) as usize) % (mutated.len() * 8);
            mutated[bit / 8] ^= 1 << (bit % 8);
            std::fs::write(&path, &mutated).expect("flip");
            match load(&path) {
                // A flip can hide in a record header in ways that only
                // truncate the accepted set (e.g. a larger length makes
                // the record read as torn) — but an accepted record must
                // still be exactly what was written.
                Ok(loaded) => {
                    assert_prefix_of_originals(&loaded, &originals);
                    let _ = replay(&loaded);
                }
                Err(JournalError::Corrupt(_)) => {}
                Err(e) => panic!("unexpected error on bit {bit}: {e}"),
            }
        }
    }

    #[test]
    fn fingerprint_separates_plans_not_options() {
        let plan_a = SweepPlan::builder()
            .scenarios([ScenarioId::CutOut])
            .seeds([0])
            .probe(4.0, false)
            .build();
        let plan_b = SweepPlan::builder()
            .scenarios([ScenarioId::CutOut])
            .seeds([1])
            .probe(4.0, false)
            .build();
        let defaults = ExecOptions::default();
        assert_eq!(
            plan_fingerprint(&plan_a, defaults),
            plan_fingerprint(&plan_a, defaults),
            "fingerprint must be deterministic"
        );
        assert_ne!(
            plan_fingerprint(&plan_a, defaults),
            plan_fingerprint(&plan_b, defaults)
        );
        assert_eq!(
            plan_fingerprint(&plan_a, defaults),
            plan_fingerprint(&plan_a, ExecOptions { per_rate: true }),
            "no option changes an exported byte, so none is part of the identity"
        );
    }
}
