//! The known-answer verdict gate's set-up checks. Per-op verdicts are
//! checked inside every pass; here, small inputs are cross-checked
//! against the exact Earley oracle, and a sample of the workload's
//! documents must give bit-identical `PvOutcome`s on the tree, stream
//! and remote (CHECK and CHECK_STREAM) paths.

use pv_core::{CheckEngine, PvOutcome, StreamCheck};
use pv_dtd::DtdAnalysis;
use pv_grammar::EarleyOracle;

use crate::inputs::{self, Doc, DtdSrc, FAMILIES};
use crate::serve;

/// Result of the set-up checks: how many were made, and which failed.
pub struct GateReport {
    pub attempted: u64,
    pub failures: Vec<String>,
}

/// Cross-checks the small oracle sample, then the path-agreement sample.
pub fn run(seed: u64, dtds: &[DtdSrc], docs: &[Doc], sample: &[usize]) -> GateReport {
    let mut report = GateReport {
        attempted: 0,
        failures: Vec::new(),
    };

    let analyses: Vec<DtdAnalysis> = FAMILIES.iter().map(|b| b.analysis()).collect();
    for (f, doc, state) in inputs::oracle_sample(seed) {
        let oracle = EarleyOracle::new(&analyses[f]).is_potentially_valid(&doc);
        let engine = CheckEngine::new(analyses[f].clone());
        let checker = engine.checker().check_document(&doc).is_potentially_valid();
        report.attempted += 1;
        if oracle != state.expect_pv() || checker != oracle {
            report.failures.push(format!(
                "oracle: {} {} document: expected {}, oracle {oracle}, checker {checker}",
                FAMILIES[f].name(),
                state.name(),
                state.expect_pv()
            ));
        }
    }

    let server = serve::start_server();
    let mut client = serve::connect(&server);
    for &i in sample {
        let doc = &docs[i];
        let dtd = &dtds[doc.dtd];
        let engine = CheckEngine::new(dtd.compile());
        let tree = pv_xml::parse(&doc.xml)
            .map(|t| engine.checker().check_document(&t))
            .map_err(|e| e.to_string());
        let stream = stream_outcome(&engine, &doc.xml);
        let handle = client.load_dtd(&dtd.root, &dtd.source).map(|l| l.handle);
        let (remote, remote_stream) = match handle {
            Ok(h) => (
                client
                    .check(&h, &doc.xml, 1, true)
                    .map(|r| r.outcome)
                    .map_err(|e| e.to_string()),
                client
                    .check_stream(&h, doc.xml.as_bytes().chunks(8 * 1024))
                    .map(|r| r.outcome)
                    .map_err(|e| e.to_string()),
            ),
            Err(e) => (Err(e.to_string()), Err(e.to_string())),
        };
        report.attempted += 1;
        let agree =
            |o: &Result<PvOutcome, String>| o.is_ok() && o.as_ref().ok() == tree.as_ref().ok();
        let verdict = tree.as_ref().map(PvOutcome::is_potentially_valid);
        if !(agree(&stream) && agree(&remote) && agree(&remote_stream))
            || verdict != Ok(doc.state.expect_pv())
        {
            report.failures.push(format!(
                "paths: document {i} ({} bytes, {}): tree {:?}, stream {:?}, remote {:?}, \
                 remote stream {:?}",
                doc.xml.len(),
                doc.state.name(),
                tree.map(|o| o.violation),
                stream.map(|o| o.violation),
                remote.map(|o| o.violation),
                remote_stream.map(|o| o.violation),
            ));
        }
    }
    drop(client);
    server.shutdown();
    report
}

fn stream_outcome(engine: &CheckEngine, xml: &str) -> Result<PvOutcome, String> {
    let checker = engine.checker();
    let mut s = StreamCheck::new(checker.stream_checker());
    for chunk in xml.as_bytes().chunks(4 * 1024) {
        s.feed(chunk).map_err(|e| e.to_string())?;
    }
    s.finish().map_err(|e| e.to_string())
}
