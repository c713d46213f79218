//! Collective tracing: spans are recorded per step and their byte
//! attribution agrees with the traffic accountant.
//!
//! The tracer is process-global, so this test lives in its own
//! integration-test binary (one process) rather than alongside other
//! tests that could record into the same buffers.

use std::sync::Arc;

use parallax_comm::collectives::{allgatherv, ring_allreduce};
use parallax_comm::topology::Topology;
use parallax_comm::transport::{Payload, Router};
use parallax_trace::{SpanCat, TraceConfig};

#[test]
fn collective_spans_cross_check_traffic_bytes() {
    parallax_trace::configure(TraceConfig::on());
    parallax_trace::reset();

    let machines = 4usize;
    let topo = Topology::uniform(machines, 1).unwrap();
    let ranks: Vec<usize> = (0..machines).collect();
    let (eps, traffic) = Router::build(topo);
    std::thread::scope(|s| {
        for mut ep in eps {
            let ranks = &ranks;
            s.spawn(move || {
                parallax_trace::set_thread_track(
                    ep.machine().unwrap() as u32,
                    ep.rank() as u32,
                    &format!("worker{}", ep.rank()),
                );
                // A bucket of two buffers rides one ring: one parent
                // span and 2(N-1) step spans per rank, as for one buffer.
                let mut data = [ep.rank() as f32; 16];
                let mut bias = [ep.rank() as f32; 5];
                let mut bucket = [&mut data[..], &mut bias[..]];
                ring_allreduce(&mut ep, ranks, 0x1000_0000_0000_0000, &mut bucket).unwrap();
                let local = vec![1.0; ep.rank() + 1];
                let parts = allgatherv(&mut ep, ranks, 0x3000_0000_0000_0000, local).unwrap();
                assert_eq!(parts.len(), machines);
            });
        }
    });

    let dump = parallax_trace::drain();
    parallax_trace::disable();

    // Parent + per-step spans for both collectives, on every rank.
    let count = |name: &str| dump.records.iter().filter(|r| r.name == name).count();
    assert_eq!(count("allreduce"), machines);
    assert_eq!(count("allreduce.reduce_scatter"), machines * (machines - 1));
    assert_eq!(count("allreduce.allgather"), machines * (machines - 1));
    assert_eq!(count("allgatherv"), machines);
    assert_eq!(count("allgatherv.step"), machines * (machines - 1));
    assert!(dump
        .records
        .iter()
        .all(|r| r.cat == SpanCat::Collective && r.machine < machines as u32));

    // Every send happened under an open span, so nothing spilled to the
    // unattributed counter and span bytes reproduce the accountant's
    // network total exactly.
    assert_eq!(dump.unattributed_net_bytes, 0);
    let snapshot = traffic.snapshot();
    assert!(snapshot.total_network_bytes() > 0);
    assert_eq!(dump.total_span_bytes(), snapshot.total_network_bytes());

    // A send outside any span lands in the unattributed spill instead.
    parallax_trace::configure(TraceConfig::on());
    let topo2 = Topology::uniform(2, 1).unwrap();
    let (mut eps2, traffic2) = Router::build(topo2);
    let e1 = eps2.pop().unwrap();
    let e0 = eps2.pop().unwrap();
    e0.send(1, 0, Payload::Floats(Arc::new(vec![0.0; 4])))
        .unwrap();
    drop(e1);
    let dump2 = parallax_trace::drain();
    parallax_trace::disable();
    assert_eq!(dump2.unattributed_net_bytes, 16);
    assert_eq!(
        dump2.total_span_bytes(),
        traffic2.snapshot().total_network_bytes()
    );
}
