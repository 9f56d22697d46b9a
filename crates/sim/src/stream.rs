//! Single-pass streaming predictor core.
//!
//! The classic evaluation loop ([`simulate_trace`](crate::simulate_trace))
//! runs *one* predictor over *one* trace; comparing N configurations means
//! decoding and walking the trace N times through `dyn ValuePredictor`
//! dispatch. This module restructures that hot path:
//!
//! * **One decode, many lanes.** [`stream_trace`] walks the trace once and
//!   feeds it to every [`StreamPredictor`] *lane*, using the fused
//!   [`access`](dfcm::ValuePredictor::access) overrides (a single table
//!   index computation per record per two-level predictor). A pass splits
//!   its lanes once into one group per predictor type and walks each
//!   chunk group by group, so every type's `access` is a direct call in a
//!   loop of its own, which the compiler can inline, with no enum or `dyn`
//!   dispatch per (record, lane).
//! * **Sweeps share level-1 work.** Plain dfcm lanes (the paper's
//!   configuration with table stats off, as every spec builds them) of
//!   one level-1 size run as blocks of four ([`DfcmBlock`]): the
//!   configuration is compiled in, a block computes the record's level-1
//!   index once, and every lane updates its own tables. The rest of a
//!   size, and plain fcm lanes, walk in their kind's group on the same
//!   compiled-in kernel through `access`.
//! * **One chunk loop, observed by construction.** Every pass — an
//!   in-memory slice or a v1/v2/v3 file — runs the same
//!   predict-then-update loop over record chunks, with its observer as a
//!   type parameter. Unobserved passes use the no-op observer, so they
//!   carry no per-record obs branch; `--obs` passes use one inline
//!   observer that folds the phase series, samples table occupancy at
//!   chunk ends and records the lane metrics.
//! * **Deterministic file streaming.** [`stream_v2_file`] and
//!   [`stream_v3_file`] stream on-disk `DFCMTRC2`/`DFCMTRC3` traces
//!   ([`stream_trace_file`] opens any format with [`TraceFile`] and
//!   takes the obs handle), decoding chunks on worker threads while the
//!   (stateful) lanes consume them strictly in file order — bit-identical
//!   to a serial run, any thread count.
//! * **Flat memory at any trace size.** File passes never materialize
//!   the trace: a bounded pipeline holds O(`decode_threads`) compressed
//!   and decoded v2/v3 chunks at once, and v1 is read one chunk at a
//!   time, so a 100M-record trace streams in a working set of a few
//!   chunks.
//!
//! Every path is differentially tested against the naive model of the
//! predictors and against `simulate_trace` (`tests/stream_equiv.rs`,
//! `tests/stream_oracle.rs`), and a damaged file streams as
//! [`Trace::read_from`] reads it.

use std::collections::BTreeMap;
use std::io::{self, Read};
use std::path::Path;
use std::sync::mpsc;

use dfcm::{
    AccessOutcome, AliasBreakdown, AliasClass, DfcmBlock, DfcmPredictor, FcmPredictor,
    LastValuePredictor, StorageCost, StridePredictor, TableStats, TwoDeltaStridePredictor,
    ValuePredictor, BLOCK_LANES,
};
use dfcm_obs::timeseries::LaneSeries;
use dfcm_obs::Obs;
use dfcm_trace::{
    Trace, TraceChunk, TraceFile, TraceRecord, V2ChunkReader, V3ChunkReader, V2_CHUNK_RECORDS,
};

use crate::run::RunStats;

/// One lane of the streaming pass: a concrete predictor, one variant per
/// type.
///
/// The streaming core deliberately avoids `Box<dyn ValuePredictor>`: a
/// pass matches each lane's variant once, when it starts, and then runs
/// each type's lanes in a loop where `access` is a direct call the
/// compiler can inline (and lanes stay `Clone`, so a cold configuration
/// can be instantiated once and copied per benchmark). The enum covers
/// the four paper predictors plus two-delta stride; anything more exotic
/// still runs through the `dyn` path of
/// [`simulate_trace`](crate::simulate_trace).
#[derive(Debug, Clone)]
pub enum StreamPredictor {
    /// Last value predictor (§2.1).
    Lvp(LastValuePredictor),
    /// Stride predictor (§2.2).
    Stride(StridePredictor),
    /// Two-delta stride predictor (§2.2).
    TwoDelta(TwoDeltaStridePredictor),
    /// Finite context method predictor (§2.3).
    Fcm(FcmPredictor),
    /// Differential FCM predictor (§3).
    Dfcm(DfcmPredictor),
}

macro_rules! for_each_lane {
    ($self:expr, $p:ident => $body:expr) => {
        match $self {
            StreamPredictor::Lvp($p) => $body,
            StreamPredictor::Stride($p) => $body,
            StreamPredictor::TwoDelta($p) => $body,
            StreamPredictor::Fcm($p) => $body,
            StreamPredictor::Dfcm($p) => $body,
        }
    };
}

/// A predictor spec string that could not be parsed by
/// [`StreamPredictor::parse_spec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(String);

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for SpecError {}

impl StreamPredictor {
    /// Parses a lane from a spec string — the grammar shared by the CLI,
    /// the serving daemon, and snapshot files:
    ///
    /// `lvp:B | stride:B | 2delta:B | fcm:L1:L2 | dfcm:L1:L2`
    ///
    /// where each field is a power-of-two table-size exponent. The
    /// canonical inverse is [`spec`](StreamPredictor::spec).
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] for unknown predictor names, missing or
    /// non-numeric fields, trailing fields, and configurations the
    /// underlying builders reject.
    pub fn parse_spec(spec: &str) -> Result<StreamPredictor, SpecError> {
        let parts: Vec<&str> = spec.split(':').collect();
        let bits = |i: usize| -> Result<u32, SpecError> {
            parts
                .get(i)
                .ok_or_else(|| SpecError(format!("`{spec}`: missing table-size field {i}")))?
                .parse()
                .map_err(|_| SpecError(format!("`{spec}`: bad table size")))
        };
        let arity = |n: usize| -> Result<(), SpecError> {
            if parts.len() > n {
                return Err(SpecError(format!(
                    "`{spec}`: expected {} table-size field(s)",
                    n - 1
                )));
            }
            Ok(())
        };
        let build_err = |e: dfcm::ConfigError| SpecError(format!("`{spec}`: {e}"));
        // Table exponents above 30 are rejected by the builders; lvp and
        // the stride predictors assert instead, so pre-check here to keep
        // parse_spec panic-free on arbitrary input.
        let checked = |b: u32| -> Result<u32, SpecError> {
            if b > 30 {
                return Err(SpecError(format!(
                    "`{spec}`: table exponent {b} exceeds 30"
                )));
            }
            Ok(b)
        };
        match parts[0] {
            "lvp" => {
                arity(2)?;
                Ok(LastValuePredictor::new(checked(bits(1)?)?).into())
            }
            "stride" => {
                arity(2)?;
                Ok(StridePredictor::new(checked(bits(1)?)?).into())
            }
            "2delta" => {
                arity(2)?;
                Ok(TwoDeltaStridePredictor::new(checked(bits(1)?)?).into())
            }
            "fcm" => {
                arity(3)?;
                Ok(FcmPredictor::builder()
                    .l1_bits(bits(1)?)
                    .l2_bits(bits(2)?)
                    .build()
                    .map_err(build_err)?
                    .into())
            }
            "dfcm" => {
                arity(3)?;
                Ok(DfcmPredictor::builder()
                    .l1_bits(bits(1)?)
                    .l2_bits(bits(2)?)
                    .build()
                    .map_err(build_err)?
                    .into())
            }
            other => Err(SpecError(format!(
                "unknown predictor `{other}` (use lvp|stride|2delta|fcm|dfcm)"
            ))),
        }
    }

    /// The canonical spec string for this lane's configuration:
    /// `parse_spec(lane.spec())` reconstructs an identically configured
    /// cold lane. Snapshots store this string so a restored session can
    /// rebuild its predictor before loading the state words.
    pub fn spec(&self) -> String {
        match self {
            StreamPredictor::Lvp(p) => format!("lvp:{}", p.entries().trailing_zeros()),
            StreamPredictor::Stride(p) => format!("stride:{}", p.entries().trailing_zeros()),
            StreamPredictor::TwoDelta(p) => format!("2delta:{}", p.entries().trailing_zeros()),
            StreamPredictor::Fcm(p) => format!("fcm:{}:{}", p.l1_bits(), p.l2_bits()),
            StreamPredictor::Dfcm(p) => format!("dfcm:{}:{}", p.l1_bits(), p.l2_bits()),
        }
    }

    /// Serializes the lane's mutable table state as a flat word vector
    /// (see the per-predictor `state_words` methods for layouts).
    pub fn state_words(&self) -> Vec<u64> {
        for_each_lane!(self, p => p.state_words())
    }

    /// Restores state captured by
    /// [`state_words`](StreamPredictor::state_words) into an identically
    /// configured lane (same [`spec`](StreamPredictor::spec)).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::State`](dfcm::ConfigError) when the words
    /// do not fit this configuration or encode an illegal table state;
    /// the lane is left unchanged.
    pub fn load_state_words(&mut self, words: &[u64]) -> Result<(), dfcm::ConfigError> {
        for_each_lane!(self, p => p.load_state_words(words))
    }
}

impl ValuePredictor for StreamPredictor {
    fn predict(&mut self, pc: u64) -> u64 {
        for_each_lane!(self, p => p.predict(pc))
    }

    fn update(&mut self, pc: u64, actual: u64) {
        for_each_lane!(self, p => p.update(pc, actual))
    }

    #[inline]
    fn access(&mut self, pc: u64, actual: u64) -> AccessOutcome {
        for_each_lane!(self, p => p.access(pc, actual))
    }

    fn storage(&self) -> StorageCost {
        for_each_lane!(self, p => p.storage())
    }

    fn name(&self) -> String {
        for_each_lane!(self, p => p.name())
    }

    fn enable_table_stats(&mut self) {
        for_each_lane!(self, p => p.enable_table_stats())
    }

    fn table_stats(&self) -> Option<TableStats> {
        for_each_lane!(self, p => p.table_stats())
    }

    fn last_alias_class(&self) -> Option<AliasClass> {
        for_each_lane!(self, p => p.last_alias_class())
    }
}

impl From<LastValuePredictor> for StreamPredictor {
    fn from(p: LastValuePredictor) -> Self {
        StreamPredictor::Lvp(p)
    }
}

impl From<StridePredictor> for StreamPredictor {
    fn from(p: StridePredictor) -> Self {
        StreamPredictor::Stride(p)
    }
}

impl From<TwoDeltaStridePredictor> for StreamPredictor {
    fn from(p: TwoDeltaStridePredictor) -> Self {
        StreamPredictor::TwoDelta(p)
    }
}

impl From<FcmPredictor> for StreamPredictor {
    fn from(p: FcmPredictor) -> Self {
        StreamPredictor::Fcm(p)
    }
}

impl From<DfcmPredictor> for StreamPredictor {
    fn from(p: DfcmPredictor) -> Self {
        StreamPredictor::Dfcm(p)
    }
}

/// Streams a slice of records through every lane once, observing each
/// outcome.
///
/// The observer receives `(lane index, record index, outcome)` for every
/// (record, lane) pair — the hook the differential tests use to compare
/// per-record behaviour against the reference loop. [`stream_trace`]
/// passes a no-op closure that the optimizer erases.
///
/// Each lane sees the records in order, so its outcomes arrive in record
/// order. The order across lanes is unspecified, even within one record:
/// the pass walks its lanes one predictor type at a time.
pub fn stream_records_with<F>(
    lanes: &mut [StreamPredictor],
    records: &[TraceRecord],
    observe: F,
) -> Vec<RunStats>
where
    F: FnMut(usize, usize, AccessOutcome),
{
    let mut pass = Pass::new(lanes, OnOutcome(observe));
    pass.feed(records);
    pass.finish().stats
}

/// Runs every lane over `trace` in a single pass: one walk of the records
/// feeds all lanes, and each lane's fused `access` computes its table
/// index once per record.
///
/// Returns one [`RunStats`] per lane, in lane order. Bit-identical to
/// running [`simulate_trace`](crate::simulate_trace) once per lane.
pub fn stream_trace(lanes: &mut [StreamPredictor], trace: &Trace) -> Vec<RunStats> {
    stream_records_with(lanes, trace.records(), |_, _, _| {})
}

/// Outcome of a streaming pass ([`stream_v2_file`], [`stream_v3_file`],
/// [`stream_trace_file`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamFileReport {
    /// Per-lane statistics, in lane order.
    pub stats: Vec<RunStats>,
    /// Records streamed (per lane).
    pub records: u64,
    /// Chunks the file was decoded in.
    pub chunks: usize,
}

/// Streams an on-disk `DFCMTRC2` trace through the lanes, decoding its
/// chunks on `decode_threads` worker threads.
///
/// The v2 format restarts its pc delta chain in every chunk, so chunks
/// decode independently and in any order — but predictor lanes are
/// stateful, so decoded chunks are *consumed* strictly in file order (a
/// reorder buffer bridges the two). The result is therefore
/// bit-identical to a fully serial run regardless of `decode_threads`;
/// `0` or `1` decodes inline.
///
/// Memory stays flat at any trace size: the file is read one chunk at a
/// time and at most O(`decode_threads`) chunks are in flight.
///
/// # Errors
///
/// Propagates open/read errors and chunk corruption
/// ([`dfcm_trace::TraceFormatError`] wrapped in `InvalidData`). On a
/// corrupt chunk the error reported is the lowest-indexed one, again
/// independent of thread scheduling; the lanes will have consumed the
/// intact chunks before it.
pub fn stream_v2_file<P: AsRef<Path>>(
    path: P,
    lanes: &mut [StreamPredictor],
    decode_threads: usize,
) -> io::Result<StreamFileReport> {
    stream_file(
        TraceFile::V2(V2ChunkReader::open(path)?),
        Pass::new(lanes, ()),
        decode_threads,
    )
}

/// Streams an on-disk compressed `DFCMTRC3` trace through the lanes,
/// decompressing and decoding its chunks on `decode_threads` worker
/// threads.
///
/// Same ordering and determinism contract as [`stream_v2_file`]: decoded
/// chunks are consumed strictly in file order, so the result is
/// bit-identical to a serial run — and to the v2 path over the same
/// records — at any thread count. The working set is O(`decode_threads`)
/// chunks (compressed + decoded), independent of trace length, with each
/// chunk's decode allocation capped by the v3 bomb guards.
///
/// # Errors
///
/// As [`stream_v2_file`], plus
/// [`dfcm_trace::TraceFormatError::DecompressionBomb`] for chunks whose
/// declared sizes no legitimate writer could produce.
pub fn stream_v3_file<P: AsRef<Path>>(
    path: P,
    lanes: &mut [StreamPredictor],
    decode_threads: usize,
) -> io::Result<StreamFileReport> {
    stream_file(
        TraceFile::V3(V3ChunkReader::open(path)?),
        Pass::new(lanes, ()),
        decode_threads,
    )
}

/// Streams any trace file through the lanes, auto-detecting the format
/// from the magic: chunked formats (v2, v3) stream flat-memory as in
/// [`stream_v2_file`]/[`stream_v3_file`]; the legacy v1 format, which has
/// no independently decodable chunks, is read inline one
/// [`STREAM_CHUNK_RECORDS`]-record chunk at a time.
///
/// With `obs` enabled the pass runs the `--obs` observer: every lane's
/// table instrumentation is turned on (occupancy and, on fcm/dfcm, the
/// §4.2 class of each prediction), and each lane's phase series
/// (`series.jsonl`), chunk-end occupancy samples and table/alias/accuracy
/// metrics are recorded under its canonical spec. A lane's series and
/// metrics do not depend on which other lanes share its pass, and the
/// series is bit-identical at any `decode_threads`. With `obs` disabled
/// no lane is instrumented and the pass is the plain lane walk.
///
/// # Errors
///
/// As [`stream_v2_file`], plus `InvalidData` with
/// [`dfcm_trace::TraceFormatError::BadMagic`] for unrecognized files and
/// [`dfcm_trace::TraceFormatError::BadHeader`] for files shorter than
/// the magic.
pub fn stream_trace_file<P: AsRef<Path>>(
    path: P,
    lanes: &mut [StreamPredictor],
    decode_threads: usize,
    obs: &Obs,
) -> io::Result<StreamFileReport> {
    let file = TraceFile::open(path)?;
    if obs.is_enabled() {
        let observer = LaneObserver::new(obs, lanes);
        stream_file(file, Pass::new(lanes, observer), decode_threads)
    } else {
        stream_file(file, Pass::new(lanes, ()), decode_threads)
    }
}

/// Runs `pass` over every record of `file`, decoding v2/v3 chunks on
/// `decode_threads` workers. v1 has no independently decodable chunks,
/// so it is read inline, [`STREAM_CHUNK_RECORDS`] records at a time.
fn stream_file<R: Read + Send, O: Observer>(
    file: TraceFile<R>,
    mut pass: Pass<'_, O>,
    decode_threads: usize,
) -> io::Result<StreamFileReport> {
    let mut feed = |chunk: &[TraceRecord]| pass.feed(chunk);
    match file {
        TraceFile::V1(mut v1) => {
            let mut chunk = Vec::with_capacity(STREAM_CHUNK_RECORDS);
            while v1.read_chunk(&mut chunk)? > 0 {
                feed(&chunk);
                chunk.clear();
            }
        }
        TraceFile::V2(chunks) => stream_chunk_pipeline(chunks, decode_threads, feed)?,
        TraceFile::V3(chunks) => stream_chunk_pipeline(chunks, decode_threads, feed)?,
    }
    Ok(pass.finish())
}

/// Class-slot labels of the phase-resolved time series: the paper's five
/// aliasing classes in [`AliasClass::ALL`] order, plus an `unclassified`
/// slot for lanes that do not classify (lvp and the stride predictors).
pub const SERIES_CLASS_LABELS: &[&str] =
    &["l1", "hash", "l2_priv", "l2_pc", "none", "unclassified"];

/// Maps a predictor's per-access alias class onto its series slot.
pub fn class_slot(class: Option<AliasClass>) -> usize {
    class.map_or(SERIES_CLASS_LABELS.len() - 1, AliasClass::index)
}

/// Records `spec`'s `predictor_alias_total` and `_correct_total` per class
/// of `alias`, if it classifies, then its `eval_accuracy` gauge, which
/// `obs summarize --check` reconciles with them.
pub fn record_accuracy(obs: &Obs, spec: &str, alias: Option<AliasBreakdown>, accuracy: f64) {
    if let Some(alias) = alias {
        for class in AliasClass::ALL {
            let labels = [("spec", spec), ("class", class.label())];
            obs.add("predictor_alias_total", &labels, alias.class_total(class));
            let correct = alias.class_correct(class);
            obs.add("predictor_alias_correct_total", &labels, correct);
        }
    }
    obs.gauge("eval_accuracy", &[("spec", spec)], accuracy);
}

/// What a [`Pass`] does besides predicting. It is a type parameter, so
/// every kind of pass compiles to its own loop: `()` observes nothing,
/// and an unobserved pass is the bare lane walk with no per-record obs
/// branch.
///
/// Each lane's outcomes arrive in record order, but lanes are walked one
/// typed group at a time, so the order across lanes is unspecified, even
/// within one record. `chunk_end` and `finish` see the lanes in lane
/// order.
trait Observer: Sized {
    /// Sees lane `li`'s outcome on `record`, the pass's `index`-th record.
    #[inline(always)]
    fn outcome<P: ValuePredictor>(
        &mut self,
        _li: usize,
        _lane: &P,
        _index: u64,
        _record: &TraceRecord,
        _outcome: AccessOutcome,
    ) {
    }

    /// Runs after every chunk, with the lanes as that chunk left them.
    fn chunk_end(&mut self, _lanes: &KindGroups<'_>) {}

    /// Runs once after the last chunk, with the per-lane totals.
    fn finish(self, _lanes: &KindGroups<'_>, _stats: &[RunStats]) {}
}

impl Observer for () {}

/// [`stream_records_with`]'s per-outcome closure as an [`Observer`].
struct OnOutcome<F>(F);

impl<F: FnMut(usize, usize, AccessOutcome)> Observer for OnOutcome<F> {
    #[inline(always)]
    fn outcome<P: ValuePredictor>(
        &mut self,
        li: usize,
        _: &P,
        index: u64,
        _: &TraceRecord,
        outcome: AccessOutcome,
    ) {
        (self.0)(li, index as usize, outcome);
    }
}

/// The `--obs` observer, run inline on the streaming core. Per lane it
/// folds a windowed accuracy/alias-class series with a top-K per-PC
/// misprediction tracker (attached via [`Obs::record_series`], exported
/// as `series.jsonl`), samples every table's occupancy at each chunk end,
/// and after the last chunk records the table, alias and `eval_accuracy`
/// metrics, all labelled with the lane's spec.
struct LaneObserver<'o> {
    obs: &'o Obs,
    series: Vec<LaneSeries>,
}

impl<'o> LaneObserver<'o> {
    /// Turns on every lane's table instrumentation (occupancy tracking
    /// and, on fcm/dfcm, the §4.2 classification behind the series'
    /// per-class breakdown) and labels each lane with its spec.
    fn new(obs: &'o Obs, lanes: &mut [StreamPredictor]) -> Self {
        let series = lanes
            .iter_mut()
            .map(|lane| {
                lane.enable_table_stats();
                LaneSeries::with_defaults(&lane.spec(), SERIES_CLASS_LABELS)
            })
            .collect();
        LaneObserver { obs, series }
    }
}

impl Observer for LaneObserver<'_> {
    #[inline]
    fn outcome<P: ValuePredictor>(
        &mut self,
        li: usize,
        lane: &P,
        index: u64,
        record: &TraceRecord,
        outcome: AccessOutcome,
    ) {
        self.series[li].record(
            index,
            record.pc,
            class_slot(lane.last_alias_class()),
            outcome.predicted,
            record.value,
        );
    }

    fn chunk_end(&mut self, lanes: &KindGroups<'_>) {
        for (li, series) in self.series.iter().enumerate() {
            let ts = lanes.lane(li).0.table_stats();
            for t in ts.iter().flat_map(|ts| &ts.tables) {
                self.obs.sample(
                    "table_occupancy_percent",
                    &[("spec", series.spec()), ("table", t.name)],
                    t.occupancy_percent(),
                );
            }
        }
    }

    fn finish(self, lanes: &KindGroups<'_>, stats: &[RunStats]) {
        let obs = self.obs;
        for (li, (series, stats)) in self.series.into_iter().zip(stats).enumerate() {
            let spec = series.spec();
            let ts = lanes.lane(li).0.table_stats();
            for t in ts.iter().flat_map(|ts| &ts.tables) {
                let labels = [("spec", spec), ("table", t.name)];
                obs.gauge("predictor_table_entries", &labels, t.entries as f64);
                obs.gauge("predictor_table_occupied", &labels, t.occupied as f64);
                obs.add("predictor_table_writes_total", &labels, t.writes);
                obs.add("predictor_table_overwrites_total", &labels, t.overwrites);
            }
            record_accuracy(obs, spec, ts.and_then(|ts| ts.alias), stats.accuracy());
            obs.record_series(series);
        }
    }
}

/// Lanes of one predictor type `P`, with their lane indices and a
/// contiguous counter of correct predictions.
struct Group<'l, P> {
    lanes: Vec<&'l mut P>,
    index: Vec<usize>,
    correct: Vec<u64>,
}

impl<'l, P: ValuePredictor> Group<'l, P> {
    fn new() -> Self {
        Group {
            lanes: Vec::new(),
            index: Vec::new(),
            correct: Vec::new(),
        }
    }

    /// Adds lane `li`; returns its position in the group.
    fn push(&mut self, li: usize, lane: &'l mut P) -> usize {
        self.lanes.push(lane);
        self.index.push(li);
        self.correct.push(0);
        self.lanes.len() - 1
    }

    /// Runs the group's lanes over `chunk`; `first` is the pass index of
    /// `chunk[0]`.
    #[inline]
    fn walk<O: Observer>(&mut self, observer: &mut O, first: u64, chunk: &[TraceRecord]) {
        if !self.lanes.is_empty() {
            walk(
                &mut self.lanes,
                &self.index,
                &mut self.correct,
                observer,
                first,
                chunk,
            );
        }
    }

    /// The group's `pos`-th lane and its correct predictions so far.
    fn lane(&self, pos: usize) -> (&dyn ValuePredictor, u64) {
        (&*self.lanes[pos], self.correct[pos])
    }
}

/// Blocks of four plain dfcm lanes ([`DfcmBlock`]), with each block
/// lane's lane index and correct predictions. A lane's position here is
/// `block * BLOCK_LANES + k`.
struct DfcmBlocks<'l> {
    blocks: Vec<DfcmBlock<'l>>,
    index: Vec<[usize; BLOCK_LANES]>,
    correct: Vec<[u64; BLOCK_LANES]>,
}

impl<'l> DfcmBlocks<'l> {
    /// Places the dfcm lanes `lanes`, given as `(lane index, lane)` pairs
    /// in lane order: the plain lanes of each level-1 size four at a time
    /// into blocks here, and the rest of each size and the lanes that are
    /// not plain into `group`. Records each lane's place in `at`.
    fn new(
        lanes: Vec<(usize, &'l mut DfcmPredictor)>,
        group: &mut Group<'l, DfcmPredictor>,
        at: &mut [Option<At>],
    ) -> Self {
        let mut blocks = DfcmBlocks {
            blocks: Vec::new(),
            index: Vec::new(),
            correct: Vec::new(),
        };
        let mut by_l1: BTreeMap<u32, Vec<(usize, &'l mut DfcmPredictor)>> = BTreeMap::new();
        for (li, lane) in lanes {
            if lane.is_plain() {
                by_l1.entry(lane.l1_bits()).or_default().push((li, lane));
            } else {
                at[li] = Some(At::Dfcm(group.push(li, lane)));
            }
        }
        for same_l1 in by_l1.into_values() {
            let mut lanes = same_l1.into_iter();
            while lanes.len() >= BLOCK_LANES {
                let pairs: [_; BLOCK_LANES] =
                    std::array::from_fn(|_| lanes.next().expect("a full block left"));
                let index = pairs.each_ref().map(|&(li, _)| li);
                for (k, &li) in index.iter().enumerate() {
                    at[li] = Some(At::DfcmBlock(blocks.blocks.len() * BLOCK_LANES + k));
                }
                let block = DfcmBlock::new(pairs.map(|(_, lane)| lane));
                blocks.blocks.push(block);
                blocks.index.push(index);
                blocks.correct.push([0; BLOCK_LANES]);
            }
            for (li, lane) in lanes {
                at[li] = Some(At::Dfcm(group.push(li, lane)));
            }
        }
        blocks
    }

    #[inline]
    fn walk<O: Observer>(&mut self, observer: &mut O, first: u64, chunk: &[TraceRecord]) {
        for ((block, index), correct) in self
            .blocks
            .iter_mut()
            .zip(&self.index)
            .zip(&mut self.correct)
        {
            walk_block(block, index, correct, observer, first, chunk);
        }
    }

    fn lane(&self, pos: usize) -> (&dyn ValuePredictor, u64) {
        let (b, k) = (pos / BLOCK_LANES, pos % BLOCK_LANES);
        (self.blocks[b].lane(k), self.correct[b][k])
    }
}

/// Where a lane of a [`KindGroups`] is: its group or the dfcm blocks, and
/// its position there.
#[derive(Debug, Clone, Copy)]
enum At {
    Lvp(usize),
    Stride(usize),
    TwoDelta(usize),
    Fcm(usize),
    Dfcm(usize),
    DfcmBlock(usize),
}

/// The lanes of a [`Pass`]: a [`StreamPredictor`] slice split once into
/// groups of one concrete predictor type, so that each group's `access`
/// is a direct call in a loop of its own. Plain dfcm lanes (see
/// [`DfcmPredictor::is_plain`]) walk as blocks of four lanes of one
/// level-1 size; the rest of each size, instrumented lanes and other
/// configurations walk in the groups.
struct KindGroups<'l> {
    lvp: Group<'l, LastValuePredictor>,
    stride: Group<'l, StridePredictor>,
    two_delta: Group<'l, TwoDeltaStridePredictor>,
    fcm: Group<'l, FcmPredictor>,
    dfcm: Group<'l, DfcmPredictor>,
    dfcm_blocks: DfcmBlocks<'l>,
    /// Each lane's place, in lane order.
    at: Vec<At>,
}

impl<'l> KindGroups<'l> {
    fn new(lanes: &'l mut [StreamPredictor]) -> Self {
        let (mut lvp, mut stride, mut two_delta) = (Group::new(), Group::new(), Group::new());
        let (mut fcm, mut dfcm) = (Group::new(), Group::new());
        let mut dfcm_lanes = Vec::new();
        let mut at: Vec<Option<At>> = Vec::with_capacity(lanes.len());
        for (li, lane) in lanes.iter_mut().enumerate() {
            at.push(match lane {
                StreamPredictor::Lvp(p) => Some(At::Lvp(lvp.push(li, p))),
                StreamPredictor::Stride(p) => Some(At::Stride(stride.push(li, p))),
                StreamPredictor::TwoDelta(p) => Some(At::TwoDelta(two_delta.push(li, p))),
                StreamPredictor::Fcm(p) => Some(At::Fcm(fcm.push(li, p))),
                StreamPredictor::Dfcm(p) => {
                    dfcm_lanes.push((li, p));
                    None
                }
            });
        }
        let dfcm_blocks = DfcmBlocks::new(dfcm_lanes, &mut dfcm, &mut at);
        KindGroups {
            lvp,
            stride,
            two_delta,
            fcm,
            dfcm,
            dfcm_blocks,
            at: at
                .into_iter()
                .map(|at| at.expect("every lane placed"))
                .collect(),
        }
    }
}

impl KindGroups<'_> {
    /// Runs every lane over `chunk`, one group at a time; `first` is the
    /// pass index of `chunk[0]`.
    #[inline]
    fn walk<O: Observer>(&mut self, observer: &mut O, first: u64, chunk: &[TraceRecord]) {
        self.lvp.walk(observer, first, chunk);
        self.stride.walk(observer, first, chunk);
        self.two_delta.walk(observer, first, chunk);
        self.fcm.walk(observer, first, chunk);
        self.dfcm.walk(observer, first, chunk);
        self.dfcm_blocks.walk(observer, first, chunk);
    }

    /// The number of lanes.
    fn len(&self) -> usize {
        self.at.len()
    }

    /// Lane `li`, counted in the order the pass was given its lanes, and
    /// its correct predictions so far.
    fn lane(&self, li: usize) -> (&dyn ValuePredictor, u64) {
        match self.at[li] {
            At::Lvp(pos) => self.lvp.lane(pos),
            At::Stride(pos) => self.stride.lane(pos),
            At::TwoDelta(pos) => self.two_delta.lane(pos),
            At::Fcm(pos) => self.fcm.lane(pos),
            At::Dfcm(pos) => self.dfcm.lane(pos),
            At::DfcmBlock(pos) => self.dfcm_blocks.lane(pos),
        }
    }
}

/// One predict-then-update pass of a lane set over a sequence of record
/// chunks: the loop every streaming evaluation runs, observed or not. Lanes
/// are stateful, so chunks must be fed in trace order; where the chunks
/// split the trace only decides when the observer's `chunk_end` runs.
struct Pass<'l, O> {
    lanes: KindGroups<'l>,
    observer: O,
    records: u64,
    chunks: usize,
}

impl<'l, O: Observer> Pass<'l, O> {
    /// A pass over `lanes`, split once into one group per variant.
    fn new(lanes: &'l mut [StreamPredictor], observer: O) -> Self {
        Pass {
            lanes: KindGroups::new(lanes),
            observer,
            records: 0,
            chunks: 0,
        }
    }

    /// Runs every lane over `chunk`.
    fn feed(&mut self, chunk: &[TraceRecord]) {
        self.lanes.walk(&mut self.observer, self.records, chunk);
        self.records += chunk.len() as u64;
        self.chunks += 1;
        self.observer.chunk_end(&self.lanes);
    }

    /// Ends the pass: the observer records what it gathered, and the
    /// per-lane totals come back, in lane order.
    fn finish(self) -> StreamFileReport {
        let stats: Vec<RunStats> = (0..self.lanes.len())
            .map(|li| RunStats {
                predictions: self.records,
                correct: self.lanes.lane(li).1,
            })
            .collect();
        self.observer.finish(&self.lanes, &stats);
        StreamFileReport {
            stats,
            records: self.records,
            chunks: self.chunks,
        }
    }
}

/// One group's record loop: each lane predicts, then updates, on every
/// record of `chunk` in turn, and `observer` sees every outcome; `first`
/// is the pass index of `chunk[0]`. `P::access` is a direct call here,
/// which the compiler can inline: no enum or `dyn` dispatch per
/// (record, lane). Kept apart from [`Group::walk`] so the lanes, the
/// counters and the observer arrive as separate `&mut` arguments, which
/// the compiler knows cannot alias.
fn walk<P: ValuePredictor, O: Observer>(
    lanes: &mut [&mut P],
    index: &[usize],
    correct: &mut [u64],
    observer: &mut O,
    first: u64,
    chunk: &[TraceRecord],
) {
    for (ri, record) in chunk.iter().enumerate() {
        for ((lane, &li), correct) in lanes.iter_mut().zip(index).zip(&mut *correct) {
            let outcome = lane.access(record.pc, record.value);
            *correct += u64::from(outcome.correct);
            observer.outcome(li, &**lane, first + ri as u64, record, outcome);
        }
    }
}

/// One block's record loop: the block steps its lanes on every record of
/// `chunk` in turn, and `observer` sees each lane's outcome; `first` is
/// the pass index of `chunk[0]`. As in [`walk`], the block, the counters
/// and the observer arrive as separate `&mut` arguments.
fn walk_block<O: Observer>(
    block: &mut DfcmBlock<'_>,
    index: &[usize; BLOCK_LANES],
    correct: &mut [u64; BLOCK_LANES],
    observer: &mut O,
    first: u64,
    chunk: &[TraceRecord],
) {
    for (ri, record) in chunk.iter().enumerate() {
        let outcomes = block.access(record.pc, record.value);
        for (k, outcome) in outcomes.into_iter().enumerate() {
            correct[k] += u64::from(outcome.correct);
            observer.outcome(index[k], block.lane(k), first + ri as u64, record, outcome);
        }
    }
}

/// Pulls chunks off `chunks` (a single reader thread owns the
/// underlying file), decodes them on `threads` workers, and hands the
/// decoded records to `consume` strictly in index order.
///
/// Memory is bounded by construction: the raw and decoded channels are
/// `sync_channel`s sized by the thread count, and the reorder buffer can
/// only hold what the decoded channel lets past — so the working set is
/// O(threads) chunks no matter how large the file is or how fast the
/// reader outpaces the lanes.
///
/// The first error — a framing error from the iterator or the
/// lowest-indexed decode failure — is returned; `consume` never sees
/// chunks at or beyond a failed index.
fn stream_chunk_pipeline<C, I, F>(chunks: I, threads: usize, mut consume: F) -> io::Result<()>
where
    C: TraceChunk,
    I: Iterator<Item = io::Result<C>> + Send,
    F: FnMut(&[TraceRecord]),
{
    if threads <= 1 {
        // True single-chunk working set: read, decode, consume, drop.
        for chunk in chunks {
            consume(&chunk?.decode()?);
        }
        return Ok(());
    }

    // Reader -> workers: one bounded channel per worker, filled
    // round-robin. Per-worker channels (rather than one shared receiver)
    // keep the receivers owned by the worker threads, so every blocked
    // sender observes a disconnect the moment its peer exits — the
    // property the shutdown paths below rely on.
    let mut raw_txs = Vec::with_capacity(threads);
    let mut raw_rxs = Vec::with_capacity(threads);
    for _ in 0..threads {
        let (tx, rx) = mpsc::sync_channel::<(usize, io::Result<C>)>(2);
        raw_txs.push(tx);
        raw_rxs.push(rx);
    }
    // Workers -> consumer: decoded chunks, bounded by the thread count.
    let (dec_tx, dec_rx) = mpsc::sync_channel::<(usize, io::Result<Vec<TraceRecord>>)>(threads);

    std::thread::scope(|scope| {
        // Move the receiver into the scope so it drops on *any* exit from
        // this closure (including the early error return below) — that
        // unparks workers blocked on a full channel, letting the scope
        // join them instead of deadlocking.
        let dec_rx = dec_rx;

        scope.spawn(move || {
            let mut chunks = chunks;
            let mut i = 0usize;
            loop {
                let Some(item) = chunks.next() else { break };
                // A framing error poisons the source; ship it as the
                // final item so the consumer reports it in order.
                let last = item.is_err();
                if raw_txs[i % raw_txs.len()].send((i, item)).is_err() {
                    break; // consumer bailed; stop reading
                }
                i += 1;
                if last {
                    break;
                }
            }
        });
        for raw_rx in raw_rxs {
            let dec_tx = dec_tx.clone();
            scope.spawn(move || {
                while let Ok((i, chunk)) = raw_rx.recv() {
                    let decoded = chunk.and_then(|c| c.decode());
                    if dec_tx.send((i, decoded)).is_err() {
                        break; // consumer bailed
                    }
                }
            });
        }
        drop(dec_tx);

        // In-order consumption with a reorder buffer: chunks may arrive
        // out of order, but lane state only ever advances on the chunk it
        // is waiting for. The buffer stays O(threads): workers can only
        // run ahead by what the bounded channels admit.
        let mut pending: BTreeMap<usize, io::Result<Vec<TraceRecord>>> = BTreeMap::new();
        let mut want = 0usize;
        loop {
            let entry = match pending.remove(&want) {
                Some(entry) => entry,
                None => match dec_rx.recv() {
                    Ok((i, decoded)) if i == want => decoded,
                    Ok((i, decoded)) => {
                        pending.insert(i, decoded);
                        continue;
                    }
                    // Every worker exited: the stream is exhausted.
                    // Indices are contiguous, so nothing can be pending.
                    Err(_) => break,
                },
            };
            consume(&entry?);
            want += 1;
        }
        debug_assert!(pending.is_empty());
        Ok(())
        // Dropping `dec_rx` here unblocks any worker parked on a full
        // channel; workers dropping their raw receivers unblock the
        // reader; the scope then joins all of them.
    })
}

/// The chunk size v1 files stream in: the on-disk v2 chunk size.
pub const STREAM_CHUNK_RECORDS: usize = V2_CHUNK_RECORDS;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate_trace;
    use dfcm_trace::{atomic_write, TraceFormatError};

    fn lanes() -> Vec<StreamPredictor> {
        vec![
            LastValuePredictor::new(6).into(),
            StridePredictor::new(6).into(),
            TwoDeltaStridePredictor::new(6).into(),
            FcmPredictor::builder()
                .l1_bits(6)
                .l2_bits(10)
                .build()
                .unwrap()
                .into(),
            DfcmPredictor::builder()
                .l1_bits(6)
                .l2_bits(10)
                .build()
                .unwrap()
                .into(),
        ]
    }

    fn mixed_trace(n: u64) -> Trace {
        (0..n)
            .map(|i| {
                TraceRecord::new(
                    4 * (i % 37),
                    (i / 5).wrapping_mul(7).wrapping_sub(i % 3) ^ (i / 101),
                )
            })
            .collect()
    }

    #[test]
    fn stream_matches_simulate_trace_per_lane() {
        let trace = mixed_trace(4000);
        let mut streamed = lanes();
        let stats = stream_trace(&mut streamed, &trace);
        for (i, mut reference) in lanes().into_iter().enumerate() {
            let expected = simulate_trace(&mut reference, &trace);
            assert_eq!(stats[i], expected, "{}", reference.name());
        }
    }

    #[test]
    fn chunked_stream_is_bit_identical_for_any_chunk_size() {
        let trace = mixed_trace(3000);
        let mut serial = lanes();
        let expected = stream_trace(&mut serial, &trace);
        for chunk in [1, 7, 64, 1000, 3000, 5000] {
            let mut chunked = lanes();
            let mut pass = Pass::new(&mut chunked, ());
            trace.chunks(chunk).for_each(|c| pass.feed(c));
            let report = pass.finish();
            assert_eq!(report.stats, expected, "chunk size {chunk}");
            assert_eq!(report.chunks, trace.len().div_ceil(chunk));
        }
    }

    #[test]
    fn empty_trace_streams_to_zero_stats() {
        let mut l = lanes();
        let stats = stream_trace(&mut l, &Trace::new());
        assert!(stats.iter().all(|s| *s == RunStats::default()));
    }

    #[test]
    fn observer_sees_every_outcome() {
        let trace = mixed_trace(50);
        let mut l = lanes();
        let mut seen = 0usize;
        let stats = stream_records_with(&mut l, trace.records(), |li, ri, out| {
            assert!(li < 5 && ri < 50);
            assert_eq!(out.correct, out.predicted == trace.records()[ri].value);
            seen += 1;
        });
        assert_eq!(seen, 5 * 50);
        assert_eq!(stats.len(), 5);
    }

    #[test]
    fn file_streaming_matches_in_memory_for_any_thread_count() {
        // Long enough for several on-disk chunks.
        let trace = mixed_trace(2 * V2_CHUNK_RECORDS as u64 + 999);
        let mut buffer = Vec::new();
        trace.write_v2_to(&mut buffer, 42).unwrap();
        let path = std::env::temp_dir().join("dfcm_stream_v2_test.trc");
        atomic_write(&path, &buffer).unwrap();

        let mut reference = lanes();
        let expected = stream_trace(&mut reference, &trace);
        for threads in [0, 1, 2, 5] {
            let mut l = lanes();
            let report = stream_v2_file(&path, &mut l, threads).unwrap();
            assert_eq!(report.stats, expected, "{threads} decode threads");
            assert_eq!(report.records, trace.len() as u64);
            assert_eq!(report.chunks, 3);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn file_streaming_reports_corruption() {
        let trace = mixed_trace(V2_CHUNK_RECORDS as u64 + 10);
        let mut buffer = Vec::new();
        trace.write_v2_to(&mut buffer, 0).unwrap();
        let target = buffer.len() / 2;
        buffer[target] ^= 0x40;
        let path = std::env::temp_dir().join("dfcm_stream_v2_corrupt_test.trc");
        atomic_write(&path, &buffer).unwrap();
        for threads in [1, 4] {
            let err = stream_v2_file(&path, &mut lanes(), threads).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{threads} threads");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn v3_file_streaming_matches_v2_and_memory_for_any_thread_count() {
        use dfcm_trace::{TraceFormat, V3_CHUNK_RECORDS};
        let trace = mixed_trace(2 * V3_CHUNK_RECORDS as u64 + 333);
        let dir = std::env::temp_dir();
        let v2_path = dir.join("dfcm_stream_v3_test.v2.trc");
        let v3_path = dir.join("dfcm_stream_v3_test.v3.trc");
        trace
            .save_with(&v2_path, TraceFormat::V2 { seed: 9 })
            .unwrap();
        trace
            .save_with(&v3_path, TraceFormat::V3 { seed: 9 })
            .unwrap();

        let mut reference = lanes();
        let expected = stream_trace(&mut reference, &trace);
        let mut v2_lanes = lanes();
        let v2_report = stream_v2_file(&v2_path, &mut v2_lanes, 2).unwrap();
        assert_eq!(v2_report.stats, expected);
        for threads in [0, 1, 2, 5] {
            let mut l = lanes();
            let report = stream_v3_file(&v3_path, &mut l, threads).unwrap();
            assert_eq!(report.stats, expected, "{threads} decode threads");
            assert_eq!(report.records, trace.len() as u64);
            assert_eq!(report.chunks, 3);
            // The auto-detecting entry point takes the same path.
            let mut auto = lanes();
            let auto_report =
                stream_trace_file(&v3_path, &mut auto, threads, &Obs::disabled()).unwrap();
            assert_eq!(auto_report, report, "{threads} threads via sniffer");
        }
        let _ = std::fs::remove_file(&v2_path);
        let _ = std::fs::remove_file(&v3_path);
    }

    #[test]
    fn v3_file_streaming_reports_corruption() {
        use dfcm_trace::TraceFormat;
        let trace = mixed_trace(dfcm_trace::V3_CHUNK_RECORDS as u64 + 10);
        let mut buffer = Vec::new();
        trace
            .write_with(&mut buffer, TraceFormat::V3 { seed: 0 })
            .unwrap();
        // Flip a byte deep in the first chunk's compressed payload.
        let target = buffer.len() / 4;
        buffer[target] ^= 0x40;
        let path = std::env::temp_dir().join("dfcm_stream_v3_corrupt_test.trc");
        atomic_write(&path, &buffer).unwrap();
        for threads in [1, 4] {
            let err = stream_v3_file(&path, &mut lanes(), threads).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{threads} threads");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn trace_file_sniffer_handles_v1_v2_and_garbage() {
        use dfcm_trace::TraceFormat;
        let trace = mixed_trace(2500);
        let dir = std::env::temp_dir();
        let mut expected_lanes = lanes();
        let expected = stream_trace(&mut expected_lanes, &trace);

        for (name, format) in [
            ("dfcm_sniff_test.v1.trc", TraceFormat::V1),
            ("dfcm_sniff_test.v2.trc", TraceFormat::V2 { seed: 1 }),
            ("dfcm_sniff_test.v3.trc", TraceFormat::V3 { seed: 1 }),
        ] {
            let path = dir.join(name);
            trace.save_with(&path, format).unwrap();
            let mut l = lanes();
            let report = stream_trace_file(&path, &mut l, 2, &Obs::disabled()).unwrap();
            assert_eq!(report.stats, expected, "{name}");
            assert_eq!(report.records, trace.len() as u64, "{name}");
            let _ = std::fs::remove_file(&path);
        }

        // Unknown magic, and a file too short to hold one: both are
        // corruption (`InvalidData`), never a retryable read error.
        for (name, bytes) in [
            ("dfcm_sniff_test.bad.trc", &b"NOTATRACEFILE???"[..]),
            ("dfcm_sniff_test.short.trc", &b"DFC"[..]),
        ] {
            let path = dir.join(name);
            atomic_write(&path, bytes).unwrap();
            let err = stream_trace_file(&path, &mut lanes(), 2, &Obs::disabled()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{name}");
            assert!(TraceFormatError::classify(&err).is_some(), "{name}: {err}");
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn spec_strings_round_trip() {
        for spec in [
            "lvp:12",
            "stride:14",
            "2delta:14",
            "fcm:12:10",
            "dfcm:16:12",
        ] {
            let lane = StreamPredictor::parse_spec(spec).unwrap();
            assert_eq!(lane.spec(), spec);
            assert_eq!(
                StreamPredictor::parse_spec(&lane.spec()).unwrap().name(),
                lane.name(),
                "{spec}"
            );
        }
    }

    #[test]
    fn bad_specs_are_rejected_not_panicked() {
        for spec in [
            "magic:3",
            "fcm:12",
            "lvp",
            "lvp:x",
            "lvp:99",
            "stride:12:9",
            "dfcm:12:10:8",
            "dfcm:99:12",
            "dfcm:a:12",
            "",
        ] {
            assert!(StreamPredictor::parse_spec(spec).is_err(), "{spec:?}");
        }
    }

    #[test]
    fn lane_state_round_trips_through_spec_and_words() {
        let trace = mixed_trace(500);
        for mut lane in lanes() {
            stream_trace(std::slice::from_mut(&mut lane), &trace);
            let mut restored = StreamPredictor::parse_spec(&lane.spec()).unwrap();
            restored.load_state_words(&lane.state_words()).unwrap();
            assert_eq!(restored.state_words(), lane.state_words());
            // Mismatched configurations are rejected.
            let mut other = StreamPredictor::parse_spec("lvp:3").unwrap();
            assert!(other.load_state_words(&lane.state_words()).is_err() || lane.spec() == "lvp:3");
        }
    }

    /// Renders the series a full observed streaming run of `path`
    /// produces at the given decode thread count.
    fn observed_series_jsonl(path: &Path, threads: usize) -> (Vec<String>, Vec<RunStats>) {
        let obs = Obs::enabled();
        let mut l = lanes();
        let report = stream_trace_file(path, &mut l, threads, &obs).unwrap();
        let lines = dfcm_obs::timeseries::render_series(&obs.series_snapshot());
        (lines, report.stats)
    }

    #[test]
    fn observed_series_bit_identical_at_1_2_4_8_threads() {
        let trace = mixed_trace(2 * V2_CHUNK_RECORDS as u64 + 999);
        let dir = std::env::temp_dir();
        for (name, format) in [
            ("dfcm_series_det.v1.trc", dfcm_trace::TraceFormat::V1),
            (
                "dfcm_series_det.v2.trc",
                dfcm_trace::TraceFormat::V2 { seed: 3 },
            ),
            (
                "dfcm_series_det.v3.trc",
                dfcm_trace::TraceFormat::V3 { seed: 3 },
            ),
        ] {
            let path = dir.join(name);
            trace.save_with(&path, format).unwrap();
            let (reference_lines, reference_stats) = observed_series_jsonl(&path, 1);
            assert!(!reference_lines.is_empty());
            for threads in [2, 4, 8] {
                let (lines, stats) = observed_series_jsonl(&path, threads);
                assert_eq!(lines, reference_lines, "{name} at {threads} threads");
                assert_eq!(stats, reference_stats, "{name} at {threads} threads");
            }
            // The observed run's stats stay bit-identical to the
            // unobserved path.
            let mut plain = lanes();
            let plain_report = stream_trace_file(&path, &mut plain, 2, &Obs::disabled()).unwrap();
            assert_eq!(plain_report.stats, reference_stats, "{name}");
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn lane_sets_and_formats_share_one_observer() {
        // A lane's series and metrics may depend neither on which other
        // lanes share its pass nor on the file's format: `eval` splits
        // its lanes into sets that each stream the file on their own.
        let trace = mixed_trace(V2_CHUNK_RECORDS as u64 + 4321);
        let dir = std::env::temp_dir();
        let mut reference: Option<(Vec<String>, dfcm_obs::metrics::MetricsSnapshot)> = None;
        for (name, format) in [
            ("dfcm_one_observer.v1.trc", dfcm_trace::TraceFormat::V1),
            (
                "dfcm_one_observer.v2.trc",
                dfcm_trace::TraceFormat::V2 { seed: 4 },
            ),
            (
                "dfcm_one_observer.v3.trc",
                dfcm_trace::TraceFormat::V3 { seed: 4 },
            ),
        ] {
            let path = dir.join(name);
            trace.save_with(&path, format).unwrap();
            let together = Obs::enabled();
            stream_trace_file(&path, &mut lanes(), 2, &together).unwrap();
            let alone = Obs::enabled();
            for lane in lanes() {
                stream_trace_file(&path, &mut [lane], 2, &alone).unwrap();
            }
            let _ = std::fs::remove_file(&path);
            let series = dfcm_obs::timeseries::render_series(&together.series_snapshot());
            let metrics = together.snapshot().1;
            assert!(!metrics.is_empty());
            assert_eq!(
                dfcm_obs::timeseries::render_series(&alone.series_snapshot()),
                series,
                "{name}"
            );
            assert_eq!(alone.snapshot().1, metrics, "{name}");
            let reference = reference.get_or_insert_with(|| (series.clone(), metrics.clone()));
            assert_eq!(reference.0, series, "{name}");
            assert_eq!(reference.1, metrics, "{name}");
        }
    }

    #[test]
    fn observed_file_pass_samples_each_chunk_end() {
        // Two whole chunks and a partial one: the partial chunk gets its
        // own closing sample, so the occupancy series always ends at the
        // tables' final state, in every format.
        let trace = mixed_trace(2 * V2_CHUNK_RECORDS as u64 + 5);
        let path = std::env::temp_dir().join("dfcm_occupancy_samples.trc");
        for format in [
            dfcm_trace::TraceFormat::V1,
            dfcm_trace::TraceFormat::V2 { seed: 6 },
        ] {
            trace.save_with(&path, format).unwrap();
            let obs = Obs::enabled();
            let mut lane = [StreamPredictor::parse_spec("lvp:4").unwrap()];
            let report = stream_trace_file(&path, &mut lane, 2, &obs).unwrap();
            assert_eq!(report.chunks, 3, "{format:?}");
            let (events, _) = obs.snapshot();
            let samples = events
                .iter()
                .filter(|e| {
                    matches!(e, dfcm_obs::span::Event::Sample { name, .. }
                    if name == "table_occupancy_percent")
                })
                .count();
            assert_eq!(samples, 3, "{format:?}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn observed_series_reconciles_with_aggregates() {
        let trace = mixed_trace(V2_CHUNK_RECORDS as u64 + 123);
        let path = std::env::temp_dir().join("dfcm_series_reconcile.v2.trc");
        let mut buffer = Vec::new();
        trace.write_v2_to(&mut buffer, 5).unwrap();
        atomic_write(&path, &buffer).unwrap();

        let obs = Obs::enabled();
        let mut l = lanes();
        let report = stream_trace_file(&path, &mut l, 2, &obs).unwrap();
        let series = obs.series_snapshot();
        assert_eq!(series.len(), l.len());
        for (lane_series, (lane, stats)) in series.iter().zip(l.iter().zip(&report.stats)) {
            // Series totals equal the lane's RunStats exactly.
            let totals = lane_series.series().totals();
            assert_eq!(totals.predictions, stats.predictions, "{}", lane.spec());
            assert_eq!(totals.correct, stats.correct, "{}", lane.spec());
            // The top-K tracker saw exactly the mispredictions, and its
            // table counts sum back to that total.
            let misses = stats.predictions - stats.correct;
            assert_eq!(lane_series.top().total(), misses, "{}", lane.spec());
            let ranked = lane_series.top().ranked();
            assert_eq!(
                ranked.iter().map(|e| e.count).sum::<u64>(),
                misses,
                "{}",
                lane.spec()
            );
            // Where the lane classifies accesses, the per-class series
            // totals equal the lane's aggregate breakdown.
            if let Some(alias) = lane.table_stats().and_then(|ts| ts.alias) {
                for (slot, class) in AliasClass::ALL.iter().enumerate() {
                    assert_eq!(
                        totals.class_total[slot],
                        alias.class_total(*class),
                        "{} class {}",
                        lane.spec(),
                        class.label()
                    );
                    assert_eq!(
                        totals.class_correct[slot],
                        alias.class_correct(*class),
                        "{} class {}",
                        lane.spec(),
                        class.label()
                    );
                }
                assert_eq!(totals.class_total[5], 0, "{}", lane.spec());
            } else {
                // Unclassified lanes put everything in the last slot.
                assert_eq!(totals.class_total[5], totals.predictions, "{}", lane.spec());
            }
        }
        // Disabled obs is the plain path: no series recorded, stats
        // bit-identical.
        let disabled = Obs::disabled();
        let mut plain = lanes();
        let plain_report = stream_trace_file(&path, &mut plain, 2, &disabled).unwrap();
        assert_eq!(plain_report, report);
        assert!(disabled.series_snapshot().is_empty());
        let _ = std::fs::remove_file(&path);
    }
}
