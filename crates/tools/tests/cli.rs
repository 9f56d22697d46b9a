//! End-to-end tests of the tool pipeline: generate → stats → eval, plus
//! disasm/profile, all through the library API the binary wraps.

use std::path::PathBuf;

fn temp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("dfcm_tools_test");
    let _ = std::fs::create_dir_all(&dir);
    dir.join(name)
}

#[test]
fn gen_stats_eval_pipeline() {
    let path = temp("li.trc");
    let message = dfcm_tools::generate("li", 20_000, &path, 7).unwrap();
    assert!(message.contains("20000 records"));

    let stats = dfcm_tools::stats(&path).unwrap();
    assert!(stats.contains("records              20000"), "{stats}");

    let (eval, report) = dfcm_tools::eval(
        &path,
        &["lvp:12".into(), "fcm:12:12".into(), "dfcm:12:12".into()],
        &dfcm_sim::EngineConfig::threads(2),
    )
    .unwrap();
    // Two threads split the three specs into two lane sets, one task
    // each; every set streams the trace once per lane it holds.
    assert_eq!(report.tasks.len(), 2);
    assert_eq!(report.total_records(), 3 * 20_000);
    assert!(eval.contains("lvp(2^12)"), "{eval}");
    assert!(eval.contains("dfcm(l1=2^12,l2=2^12"), "{eval}");
    // The DFCM line should report the higher accuracy; parse and compare.
    let acc_of = |needle: &str| -> f64 {
        let line = eval.lines().find(|l| l.contains(needle)).expect("line");
        let idx = line.find("accuracy").expect("accuracy field");
        line[idx + 8..]
            .trim()
            .split(' ')
            .next()
            .unwrap()
            .parse()
            .unwrap()
    };
    assert!(acc_of("dfcm(") > acc_of("fcm(l1"));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn gen_accepts_vm_kernels() {
    let path = temp("sieve.trc");
    dfcm_tools::generate("sieve", 5_000, &path, 1).unwrap();
    let stats = dfcm_tools::stats(&path).unwrap();
    assert!(stats.contains("records              5000"), "{stats}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn gen_rejects_unknown_workload() {
    let path = temp("nope.trc");
    assert!(dfcm_tools::generate("nope", 10, &path, 1).is_err());
}

#[test]
fn eval_rejects_bad_spec_cleanly() {
    let path = temp("forspec.trc");
    dfcm_tools::generate("compress", 1_000, &path, 1).unwrap();
    let e = dfcm_tools::eval(
        &path,
        &["warlock:9".into()],
        &dfcm_sim::EngineConfig::default(),
    )
    .unwrap_err();
    assert!(e.to_string().contains("unknown predictor"));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn stats_rejects_garbage_file() {
    let path = temp("garbage.trc");
    std::fs::write(&path, b"not a trace").unwrap();
    assert!(dfcm_tools::stats(&path).is_err());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn trace_verify_passes_and_inspect_describes_fresh_output() {
    let path = temp("verify_ok.trc");
    dfcm_tools::generate("go", 3_000, &path, 42).unwrap();

    let ok = dfcm_tools::trace_verify(&path).unwrap();
    assert!(ok.contains("OK"), "{ok}");
    assert!(ok.contains("3000 records"), "{ok}");

    let inspect = dfcm_tools::trace_inspect(&path).unwrap();
    assert!(inspect.contains("format            v2"), "{inspect}");
    assert!(inspect.contains("declared records  3000"), "{inspect}");
    assert!(inspect.contains("generator seed    42"), "{inspect}");
    assert!(inspect.contains("status            intact"), "{inspect}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn corruption_drill_verify_fails_then_salvage_recovers() {
    // The full drill CI runs from the shell, in-process: generate a
    // 4-chunk trace, flip one payload byte deep in the file, watch
    // `verify` fail, `salvage` recover 3/4 chunks, and the salvaged
    // file verify clean.
    let path = temp("drill.trc");
    let out = temp("drill_salvaged.trc");
    dfcm_tools::generate("cc1", 200_000, &path, 9).unwrap();

    let mut bytes = std::fs::read(&path).unwrap();
    // Flip a byte ~75% in: inside the last chunk's payload, far from
    // the header and earlier chunks.
    let at = bytes.len() * 3 / 4;
    bytes[at] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();

    let e = dfcm_tools::trace_verify(&path).unwrap_err().to_string();
    assert!(e.contains("CORRUPT"), "{e}");

    let inspect = dfcm_tools::trace_inspect(&path).unwrap();
    assert!(inspect.contains("status            CORRUPT"), "{inspect}");

    let summary = dfcm_tools::trace_salvage(&path, &out).unwrap();
    assert!(summary.contains("3/4 chunks"), "{summary}");
    assert!(summary.contains("dropped chunk"), "{summary}");

    let ok = dfcm_tools::trace_verify(&out).unwrap();
    assert!(ok.contains("OK"), "{ok}");

    // The salvaged records are bit-identical to the original minus
    // exactly the records of the one damaged chunk.
    let report = {
        let file = std::fs::File::open(&path).unwrap();
        dfcm_trace::salvage_trace(std::io::BufReader::new(file)).unwrap()
    };
    assert_eq!(report.total_chunks, 4);
    assert_eq!(report.recovered_chunks, 3);
    assert_eq!(report.dropped.len(), 1);
    let dead = report.dropped[0].chunk;
    let original = dfcm_tools::trace_for("cc1", 200_000, 9).unwrap();
    let expected: Vec<_> = original
        .records()
        .iter()
        .enumerate()
        .filter(|(i, _)| i / dfcm_trace::V2_CHUNK_RECORDS != dead)
        .map(|(_, r)| *r)
        .collect();
    let salvaged = dfcm_trace::Trace::load(&out).unwrap();
    assert_eq!(salvaged.records(), expected.as_slice());
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&out);
}

#[test]
fn trace_compress_blames_a_damaged_input() {
    // A chunk whose CRC fails is the input's fault: the message names the
    // input, not the output, and no output is left behind.
    let path = temp("compress_damaged.trc");
    let out = temp("compress_damaged_out.trc");
    let _ = std::fs::remove_file(&out);
    dfcm_tools::generate("cc1", 200_000, &path, 9).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    let at = bytes.len() * 3 / 4;
    bytes[at] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();

    let e = dfcm_tools::trace_compress(&path, &out, None)
        .unwrap_err()
        .to_string();
    assert!(e.starts_with(&format!("{}: chunk ", path.display())), "{e}");
    assert!(e.contains("CRC mismatch"), "{e}");
    assert!(!e.contains("writing"), "{e}");
    assert!(!out.exists());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn salvage_refuses_fully_destroyed_body() {
    let path = temp("hopeless.trc");
    let out = temp("hopeless_out.trc");
    dfcm_tools::generate("li", 1_000, &path, 3).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    // Zero everything after the magic: header survives as garbage or
    // the single chunk dies; either way nothing should be recoverable.
    for b in bytes.iter_mut().skip(12) {
        *b = 0;
    }
    std::fs::write(&path, &bytes).unwrap();
    assert!(dfcm_tools::trace_salvage(&path, &out).is_err());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn gen_v3_streams_and_matches_materialized_encoding() {
    // `gen --format v3` on a synthetic workload takes the streaming
    // writer path; the result must load back equal to the in-memory
    // trace and report v3 structure under inspect/verify.
    let path = temp("gen_v3.trc");
    let msg = dfcm_tools::generate_formatted(
        "li",
        10_000,
        &path,
        11,
        dfcm_trace::TraceFormat::V3 { seed: 11 },
    )
    .unwrap();
    assert!(msg.contains("10000 records"), "{msg}");

    let loaded = dfcm_trace::Trace::load(&path).unwrap();
    let expected = dfcm_tools::trace_for("li", 10_000, 11).unwrap();
    assert_eq!(loaded.records(), expected.records());

    let inspect = dfcm_tools::trace_inspect(&path).unwrap();
    assert!(inspect.contains("format            v3"), "{inspect}");
    assert!(inspect.contains("generator seed    11"), "{inspect}");
    assert!(inspect.contains("compressed"), "{inspect}");
    assert!(inspect.contains("payload density"), "{inspect}");
    assert!(inspect.contains("status            intact"), "{inspect}");

    let ok = dfcm_tools::trace_verify(&path).unwrap();
    assert!(ok.contains("OK (v3"), "{ok}");
    assert!(ok.contains("bits/record"), "{ok}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn trace_compress_v2_to_v3_round_trips() {
    let v2 = temp("compress_in.trc");
    let v3 = temp("compress_out.trc");
    let back = temp("compress_back.trc");
    dfcm_tools::generate("compress", 30_000, &v2, 5).unwrap();

    let msg = dfcm_tools::trace_compress(&v2, &v3, None).unwrap();
    assert!(msg.contains("30000 records"), "{msg}");
    assert!(msg.contains("bits/record"), "{msg}");
    let original = dfcm_trace::Trace::load(&v2).unwrap();
    assert_eq!(
        dfcm_trace::Trace::load(&v3).unwrap().records(),
        original.records()
    );
    // v3 must actually be smaller than the v2 it came from.
    let v2_bytes = std::fs::metadata(&v2).unwrap().len();
    let v3_bytes = std::fs::metadata(&v3).unwrap().len();
    assert!(v3_bytes < v2_bytes, "{v3_bytes} >= {v2_bytes}");

    // And back out to v2: still the same records, seed preserved.
    dfcm_tools::trace_compress(&v3, &back, Some("v2")).unwrap();
    assert_eq!(
        dfcm_trace::Trace::load(&back).unwrap().records(),
        original.records()
    );
    let inspect = dfcm_tools::trace_inspect(&back).unwrap();
    assert!(inspect.contains("generator seed    5"), "{inspect}");

    assert!(dfcm_tools::trace_compress(&v2, &back, Some("v9")).is_err());
    for p in [&v2, &v3, &back] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn v3_corruption_drill_verify_fails_then_salvage_reemits_v3() {
    // The v3 twin of the v2 drill: damage one chunk of a multi-chunk v3
    // trace, watch verify fail, salvage recover the others — and the
    // salvaged output must still be v3 with the seed preserved.
    let path = temp("drill_v3.trc");
    let out = temp("drill_v3_salvaged.trc");
    dfcm_tools::generate_formatted(
        "cc1",
        200_000,
        &path,
        9,
        dfcm_trace::TraceFormat::V3 { seed: 9 },
    )
    .unwrap();

    let mut bytes = std::fs::read(&path).unwrap();
    let at = bytes.len() * 3 / 4;
    bytes[at] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();

    let e = dfcm_tools::trace_verify(&path).unwrap_err().to_string();
    assert!(e.contains("CORRUPT"), "{e}");

    let summary = dfcm_tools::trace_salvage(&path, &out).unwrap();
    assert!(summary.contains("3/4 chunks"), "{summary}");
    assert!(summary.contains("dropped chunk"), "{summary}");

    let inspect = dfcm_tools::trace_inspect(&out).unwrap();
    assert!(inspect.contains("format            v3"), "{inspect}");
    assert!(inspect.contains("generator seed    9"), "{inspect}");
    assert!(inspect.contains("status            intact"), "{inspect}");

    // Recovered records are bit-identical to the original minus exactly
    // the damaged chunk.
    let report = {
        let file = std::fs::File::open(&path).unwrap();
        dfcm_trace::salvage_trace(std::io::BufReader::new(file)).unwrap()
    };
    assert_eq!(report.version, 3);
    assert_eq!(report.total_chunks, 4);
    assert_eq!(report.recovered_chunks, 3);
    let dead = report.dropped[0].chunk;
    let original = dfcm_tools::trace_for("cc1", 200_000, 9).unwrap();
    let expected: Vec<_> = original
        .records()
        .iter()
        .enumerate()
        .filter(|(i, _)| i / dfcm_trace::V3_CHUNK_RECORDS != dead)
        .map(|(_, r)| *r)
        .collect();
    let salvaged = dfcm_trace::Trace::load(&out).unwrap();
    assert_eq!(salvaged.records(), expected.as_slice());
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&out);
}

#[test]
fn disasm_lists_whole_kernel() {
    let listing = dfcm_tools::disasm("norm").unwrap();
    assert!(
        listing.lines().count() > 50,
        "{} lines",
        listing.lines().count()
    );
    assert!(listing.contains("div"));
}
