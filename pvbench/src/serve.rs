//! `serve_mixed`: an in-process `Server` on loopback TCP, driven by one
//! closed-loop client connection (an editor that waits for each
//! verdict). One pass runs a fixed script: LOADs of generated DTDs and a
//! 300-element chain DTD, CHECKs of editor-sized documents against warm
//! handles, one BATCH at jobs=2 and a few CHECK_STREAMs.
//!
//! LOAD interns by `(root, source)`, so every pass sends byte-distinct,
//! cost-identical variants (a numbered comment appended to the source);
//! otherwise the compile would never rerun after the first pass.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::thread;
use std::time::Instant;

use pv_service::json::Json;
use pv_service::{Client, Endpoint, Server, ServerHandle};

use crate::inputs::{self, Doc, DtdSrc, Request, ServeMixed};
use crate::trace::Tracer;
use crate::{run, Metric, OpKind, OpSpec, Workload};

/// Server pool workers and the BATCH's jobs: the host's two CPUs.
pub const JOBS: usize = 2;
/// Bytes per `CHECK_STREAM` chunk.
const STREAM_CHUNK: usize = 16 * 1024;
/// Passes of the traced service-layer breakdown.
const TRACED_PASSES: usize = 5;

pub struct ServeBench {
    dtds: Vec<DtdSrc>,
    docs: Vec<Doc>,
    script: Vec<Request>,
    /// Each BATCH's documents, built once so the pass only sends them.
    batches: Vec<Vec<String>>,
    ops: Vec<OpSpec>,
    server: Option<(ServerHandle, Client)>,
    /// Family handles, by DTD index.
    handles: Vec<String>,
    /// Numbers the LOAD variants; never repeats within a server's life.
    variant: u64,
}

pub fn start_server() -> ServerHandle {
    Server::bind(&Endpoint::Tcp("127.0.0.1:0".into()), JOBS).expect("bind a loopback port")
}

pub fn connect(server: &ServerHandle) -> Client {
    Client::connect_endpoint(server.endpoint()).expect("connect to the in-process server")
}

impl ServeBench {
    pub fn new(seed: u64) -> ServeBench {
        let ServeMixed { dtds, docs, script } = inputs::serve_mixed(seed);
        let all_not_pv = |ds: &[usize]| ds.iter().all(|&d| !docs[d].state.expect_pv());
        let bytes = |ds: &[usize]| ds.iter().map(|&d| docs[d].xml.len() as u64).sum();
        let mut batches = Vec::new();
        let ops = script
            .iter()
            .map(|r| match r {
                Request::Load(_) => OpSpec {
                    kind: OpKind::Load,
                    bytes: 0,
                },
                Request::Check(d) | Request::CheckStream(d) => OpSpec {
                    kind: OpKind::Doc {
                        not_pv: all_not_pv(&[*d]),
                    },
                    bytes: bytes(&[*d]),
                },
                Request::Batch(ds) => {
                    batches.push(ds.iter().map(|&d| docs[d].xml.clone()).collect());
                    OpSpec {
                        kind: OpKind::Doc {
                            not_pv: all_not_pv(ds),
                        },
                        bytes: bytes(ds),
                    }
                }
            })
            .collect();
        ServeBench {
            dtds,
            docs,
            script,
            batches,
            ops,
            server: None,
            handles: Vec::new(),
            variant: 0,
        }
    }

    /// Program set-up: bind the server, connect, LOAD the families.
    fn start(&self) -> (ServerHandle, Client, Vec<String>) {
        let server = start_server();
        let mut client = connect(&server);
        let handles = self.dtds[..inputs::FAMILIES.len()]
            .iter()
            .map(|d| {
                client
                    .load_dtd(&d.root, &d.source)
                    .expect("family DTDs load")
                    .handle
            })
            .collect();
        (server, client, handles)
    }

    fn client(&mut self) -> &mut Client {
        &mut self.server.as_mut().expect("set up").1
    }

    /// Runs one request; `false` when it failed, or when the reply's
    /// verdicts or load metadata do not match what the input was built
    /// to give.
    fn request(&mut self, i: usize, batch: &mut usize, tr: &mut Option<&mut Tracer>) -> bool {
        let req = self.script[i].clone();
        match req {
            Request::Load(d) => {
                self.variant += 1;
                let dtd = &self.dtds[d];
                let source = format!("{}\n<!-- variant {:012} -->\n", dtd.source, self.variant);
                let (root, elements) = (dtd.root.clone(), dtd.elements);
                let info = run::span(tr, "svc.load", || self.client().load_dtd(&root, &source));
                info.is_ok_and(|info| info.elements == elements as u64)
            }
            Request::Check(d) => {
                let (handle, doc) = (self.handles[self.docs[d].dtd].clone(), &self.docs[d]);
                let client = &mut self.server.as_mut().expect("set up").1;
                let r = run::span(tr, "svc.check", || client.check(&handle, &doc.xml, 1, true));
                r.is_ok_and(|r| r.outcome.is_potentially_valid() == doc.state.expect_pv())
            }
            Request::Batch(ds) => {
                let handle = self.handles[self.docs[ds[0]].dtd].clone();
                let xmls = &self.batches[*batch];
                *batch += 1;
                let client = &mut self.server.as_mut().expect("set up").1;
                let r = run::span(tr, "svc.batch", || client.check_batch(&handle, xmls, JOBS));
                r.is_ok_and(|outs| {
                    outs.len() == ds.len()
                        && outs.iter().zip(&ds).all(|(o, &d)| {
                            o.is_potentially_valid() == self.docs[d].state.expect_pv()
                        })
                })
            }
            Request::CheckStream(d) => {
                let (handle, doc) = (self.handles[self.docs[d].dtd].clone(), &self.docs[d]);
                let client = &mut self.server.as_mut().expect("set up").1;
                let chunks = doc.xml.as_bytes().chunks(STREAM_CHUNK);
                let r = run::span(tr, "svc.check_stream", || {
                    client.check_stream(&handle, chunks)
                });
                r.is_ok_and(|r| r.outcome.is_potentially_valid() == doc.state.expect_pv())
            }
        }
    }

    fn metrics(&mut self) -> Json {
        self.client().metrics().expect("METRICS answers")
    }
}

fn hist_sum_ms(m: &Json, name: &str) -> f64 {
    let sum = m
        .get("histograms")
        .and_then(|h| h.get(name))
        .and_then(|h| h.get("sum"));
    sum.and_then(Json::as_u64).unwrap_or(0) as f64 / 1e3
}

fn counter(m: &Json, name: &str) -> f64 {
    m.get("counters")
        .and_then(|c| c.get(name))
        .and_then(Json::as_u64)
        .unwrap_or(0) as f64
}

/// A loopback relay that forwards one connection to `upstream` and
/// counts the bytes each way; the thread returns `(sent, received)` once
/// the client side closes.
fn counting_relay(upstream: &Endpoint) -> (Endpoint, thread::JoinHandle<(u64, u64)>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
    let addr = listener.local_addr().expect("bound address").to_string();
    let Endpoint::Tcp(up_addr) = upstream.clone() else {
        unreachable!("the server is on TCP")
    };
    let relay = thread::spawn(move || {
        let (client, _) = listener.accept().expect("the relay's one client connects");
        let server = TcpStream::connect(up_addr).expect("the relay reaches the server");
        let copy = |mut from: TcpStream, mut to: TcpStream| {
            let mut buf = vec![0u8; 64 * 1024];
            let mut total = 0u64;
            while let Ok(n) = from.read(&mut buf) {
                if n == 0 || to.write_all(&buf[..n]).is_err() {
                    break;
                }
                total += n as u64;
            }
            let _ = to.shutdown(Shutdown::Write);
            total
        };
        let (c2, s2) = (
            client.try_clone().expect("clone"),
            server.try_clone().expect("clone"),
        );
        let up = thread::spawn(move || copy(c2, s2));
        let received = copy(server, client);
        (up.join().expect("relay thread"), received)
    });
    (Endpoint::Tcp(addr), relay)
}

impl Workload for ServeBench {
    fn setup(&mut self) {
        let (server, client, handles) = self.start();
        self.handles = handles;
        self.server = Some((server, client));
    }

    fn time_setup(&self) -> f64 {
        let t = Instant::now();
        let (server, client, _) = self.start();
        let secs = t.elapsed().as_secs_f64();
        drop(client);
        server.shutdown();
        secs
    }

    fn ops(&self) -> &[OpSpec] {
        &self.ops
    }

    fn pass(&mut self, times: &mut [f64], mut tr: Option<&mut Tracer>) -> u64 {
        let mut failed = 0;
        let mut batch = 0;
        for (i, slot) in times.iter_mut().enumerate() {
            run::enter_op(&mut tr);
            let t = Instant::now();
            let ok = self.request(i, &mut batch, &mut tr);
            *slot = t.elapsed().as_secs_f64();
            run::exit(&mut tr);
            failed += u64::from(!ok);
        }
        failed
    }

    fn inputs(&self) -> (&[DtdSrc], &[Doc]) {
        (&self.dtds, &self.docs)
    }

    fn gate_sample(&self) -> Vec<usize> {
        self.script
            .iter()
            .filter_map(|r| match r {
                Request::CheckStream(d) => Some(*d),
                _ => None,
            })
            .chain(0..inputs::FAMILIES.len())
            .collect()
    }

    fn service_layer(&mut self) -> (Vec<Metric>, u64, u64) {
        let mut times = vec![0.0; self.ops.len()];
        let before = self.metrics();
        let mut tracer = Tracer::new();
        let mut failed = 0;
        for _ in 0..TRACED_PASSES {
            failed += self.pass(&mut times, Some(&mut tracer));
        }
        let after = self.metrics();
        let delta = |f: &dyn Fn(&Json) -> f64| f(&after) - f(&before);

        let mut m = Vec::new();
        let (mut rtt_total, mut requests) = (0.0, 0usize);
        for verb in ["load", "check", "batch", "check_stream"] {
            let name = format!("svc.{verb}");
            let durs: Vec<f64> = tracer
                .spans()
                .iter()
                .filter(|s| s.name == name)
                .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
                .collect();
            rtt_total += durs.iter().sum::<f64>();
            requests += durs.len();
            let mean = durs.iter().sum::<f64>() / durs.len().max(1) as f64;
            m.push(Metric::new(&format!("svc.rtt_ms.{verb}"), mean, "ms"));
        }
        let per_req = |ms: f64| ms / requests.max(1) as f64;
        for stage in ["read", "parse", "recognize", "serialize"] {
            let ms = delta(&|j| hist_sum_ms(j, &format!("pv_service_{stage}_us")));
            m.push(Metric::new(
                &format!("svc.server_ms.{stage}"),
                per_req(ms),
                "ms",
            ));
        }
        let server_ms = ["check", "batch", "stream", "load"]
            .iter()
            .map(|v| delta(&|j| hist_sum_ms(j, &format!("pv_service_{v}_us"))))
            .sum::<f64>();
        m.push(Metric::new(
            "svc.wire_ms",
            per_req(rtt_total - server_ms),
            "ms",
        ));

        // One more pass through a counting relay measures the bytes a
        // pass puts on the wire each way.
        let (relay_at, relay) = counting_relay(self.server.as_ref().expect("set up").0.endpoint());
        let relayed = Client::connect_endpoint(&relay_at).expect("connect through the relay");
        let direct = std::mem::replace(self.client(), relayed);
        failed += self.pass(&mut times, None);
        drop(std::mem::replace(self.client(), direct));
        let (sent, received) = relay.join().expect("relay thread");
        m.push(Metric::new("svc.req_bytes", sent as f64, "bytes"));
        m.push(Metric::new("svc.resp_bytes", received as f64, "bytes"));

        let shed =
            delta(&|j| counter(j, "pv_service_shed_total") + counter(j, "pv_service_busy_total"));
        let errors = delta(&|j| {
            counter(j, "pv_service_app_error_total") + counter(j, "pv_service_framing_error_total")
        });
        m.push(Metric::new("svc.shed", shed, "count"));
        m.push(Metric::new("svc.errors", errors, "count"));
        let attempted = (TRACED_PASSES + 1) * self.ops.len();
        (m, attempted as u64, failed)
    }

    fn teardown(&mut self) {
        if let Some((server, client)) = self.server.take() {
            drop(client);
            server.shutdown();
        }
    }
}
