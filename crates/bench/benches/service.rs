//! The resident service end-to-end: request latency against a live
//! `pv-service` server over a unix socket (loopback TCP where unix
//! sockets are unavailable), cold vs warm shared shape cache, and batch
//! throughput at several server-side job caps.
//!
//! Every measured iteration is a full wire round trip — client encode,
//! kernel, server parse, check (sequential or sharded under the pool cap),
//! JSON response, client decode — so these numbers are the ones a service
//! deployment actually sees. Compare the `inproc_*` rows (same engine, no
//! wire) to read off the protocol overhead, and `cold_*` vs `warm_*`
//! (RESET inside the loop vs a standing cache) for what the warm shared
//! cache is worth on repetitive markup.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pv_core::engine::CheckEngine;
use pv_dtd::builtin::BuiltinDtd;
use pv_par::Pool;
use pv_service::{Client, Endpoint, Server};
use pv_workload::corpus;

fn bench_service(c: &mut Criterion) {
    #[cfg(unix)]
    let endpoint = Endpoint::Unix(std::env::temp_dir().join(format!(
        "pv-service-bench-{}.sock",
        std::process::id()
    )));
    #[cfg(not(unix))]
    let endpoint = Endpoint::parse("127.0.0.1:0");
    let server = Server::bind(&endpoint, 8).expect("bind bench server");
    let mut client = Client::connect_endpoint(server.endpoint()).expect("connect");
    let dtd = client.load_builtin("play").expect("load play");

    // In-process twin of the server's engine, for wire-overhead rows.
    let engine = CheckEngine::new(BuiltinDtd::Play.analysis());
    let pool = Pool::new(8);

    let small = corpus::play(600);
    let small_xml = small.to_xml();
    let large = corpus::play(5_000);
    let large_xml = large.to_xml();

    let mut group = c.benchmark_group("service_latency");
    group.bench_function("warm_small_seq", |b| {
        b.iter(|| client.check(&dtd.handle, &small_xml, 1, true).unwrap().outcome)
    });
    group.bench_function("warm_small_jobs2", |b| {
        b.iter(|| client.check(&dtd.handle, &small_xml, 2, true).unwrap().outcome)
    });
    group.bench_function("cold_small_seq", |b| {
        b.iter(|| {
            client.reset(&dtd.handle).unwrap();
            client.check(&dtd.handle, &small_xml, 1, true).unwrap().outcome
        })
    });
    group.bench_function("warm_large_jobs8", |b| {
        b.iter(|| client.check(&dtd.handle, &large_xml, 8, true).unwrap().outcome)
    });
    group.bench_function("inproc_small_pooled", |b| {
        b.iter(|| engine.check_document_pooled(&small, &pool, 2, true))
    });
    group.finish();

    // Batch throughput: 16 irregular documents per request.
    let docs = corpus::batch(BuiltinDtd::Play, 16, 400).unwrap();
    let total: usize = docs.iter().map(|d| d.element_count()).sum();
    let xmls: Vec<String> = docs.iter().map(|d| d.to_xml()).collect();
    let mut group = c.benchmark_group("service_batch");
    group.throughput(Throughput::Elements(total as u64));
    for jobs in [1usize, 2, 8] {
        group.bench_with_input(BenchmarkId::new(format!("jobs{jobs}"), total), &xmls, |b, xmls| {
            b.iter(|| client.check_batch(&dtd.handle, xmls, jobs).unwrap().len())
        });
    }
    group.finish();

    client.shutdown().expect("shutdown");
    drop(client);
    server.join();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_service
}
criterion_main!(benches);
