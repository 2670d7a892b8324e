//! Cross-crate tests of the serving front-end: a property test that N
//! concurrent clients submitting through a `HiggsService` receive results
//! bit-identical to a direct `query_batch` on an unserved `ShardedHiggs`
//! (at 1/2/4 shards), the acceptance-bound coalescing test (128 simulated
//! clients sharing 16 distinct windows build at most 16 plans on a warm
//! tick), and a shutdown-while-in-flight stress test (every ticket
//! resolves, no hang, and the writer threads join).

use higgs::{HiggsConfig, HiggsService, ServiceError, ShardedHiggs, Ticket};
use higgs_common::{
    Query, QueryOptions, StreamEdge, TemporalGraphSummary, TimeRange, VertexDirection,
};
use proptest::prelude::*;
use std::time::Duration;

const MAX_T: u64 = 2_000;

fn edge_strategy() -> impl Strategy<Value = StreamEdge> {
    (0u64..40, 0u64..40, 1u64..5, 0u64..MAX_T).prop_map(|(s, d, w, t)| StreamEdge::new(s, d, w, t))
}

fn stream_strategy(max_len: usize) -> impl Strategy<Value = Vec<StreamEdge>> {
    prop::collection::vec(edge_strategy(), 1..max_len).prop_map(|mut edges| {
        edges.sort_by_key(|e| e.timestamp);
        edges
    })
}

/// Random typed queries of all four kinds over the 40-vertex universe,
/// drawn from a small set of windows so concurrent clients genuinely share
/// plans.
fn mixed_query_strategy() -> impl Strategy<Value = Query> {
    (0u8..4, 0u64..40, 0u64..40, 0u64..40, 0u64..8).prop_map(|(kind, a, b, c, window)| {
        let start = window * (MAX_T / 8);
        let range = TimeRange::new(start, start + MAX_T / 4);
        match kind {
            0 => Query::edge(a, b, range),
            1 => Query::vertex(
                a,
                if b % 2 == 0 {
                    VertexDirection::Out
                } else {
                    VertexDirection::In
                },
                range,
            ),
            2 => Query::path(vec![a, b, c, (a + b) % 40, (b + c) % 40], range),
            _ => Query::subgraph(vec![(a, b), (b, c), (c, a), (a, c)], range),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn concurrent_clients_match_the_unserved_service(
        edges in stream_strategy(200),
        queries in prop::collection::vec(mixed_query_strategy(), 4..32),
    ) {
        // Split the query load over 4 concurrent clients per shard layout;
        // whatever ticks/classes the admission loop forms, every client's
        // slice must come back bit-identical to an unserved ShardedHiggs
        // evaluating the same batch directly.
        for shards in [1usize, 2, 4] {
            let config = HiggsConfig::builder()
                .shards(shards)
                .admission_tick(Duration::from_micros(200))
                .build()
                .expect("valid shard count");
            let service = HiggsService::new(config);
            let ingest = service.client();
            ingest.insert_all(&edges).expect("live service");

            let mut direct = ShardedHiggs::new(
                HiggsConfig::builder().shards(shards).build().expect("valid"),
            );
            direct.insert_all(&edges);
            let expected = direct.query_batch(&queries);

            let slices: Vec<&[Query]> = queries.chunks(queries.len().div_ceil(4)).collect();
            let served: Vec<Vec<u64>> = std::thread::scope(|scope| {
                let workers: Vec<_> = slices
                    .iter()
                    .map(|slice| {
                        let client = service.client();
                        scope.spawn(move || {
                            client.query_batch(slice).expect("live service")
                        })
                    })
                    .collect();
                workers
                    .into_iter()
                    .map(|w| w.join().expect("client thread panicked"))
                    .collect()
            });
            let flat: Vec<u64> = served.into_iter().flatten().collect();
            prop_assert_eq!(
                &flat, &expected,
                "{} shards: served results diverged from the unserved service",
                shards
            );
        }
    }
}

#[test]
fn warm_tick_with_128_clients_and_16_windows_builds_at_most_16_plans() {
    // The acceptance bound for the serving layer: 128 simulated clients
    // sharing 16 distinct windows must coalesce into at most 16 plans total
    // across all shards in a warm tick — one per distinct window at worst,
    // zero when every shard's plan cache is warm.
    let config = HiggsConfig::builder()
        .shards(4)
        .admission_tick(Duration::from_millis(2))
        .build()
        .expect("valid configuration");
    let service = HiggsService::new(config);
    let ingest = service.client();
    let edges: Vec<StreamEdge> = (0..5_000u64)
        .map(|i| StreamEdge::new(i % 100, (i * 7) % 100, 1 + i % 3, i / 4))
        .collect();
    ingest.insert_all(&edges).expect("live service");
    ingest.flush();

    let windows: Vec<TimeRange> = (0..16u64)
        .map(|w| TimeRange::new(w * 60, w * 60 + 500))
        .collect();
    // Warm every (shard, window) plan the tick will touch — queries route by
    // source, so the warm-up must cover every source the clients use.
    let warmup: Vec<Query> = windows
        .iter()
        .flat_map(|&w| (0..7u64).map(move |src| Query::edge(src, 7, w)))
        .collect();
    ingest.query_batch(&warmup).expect("warm-up batch");
    service.reset_plan_count();

    let served: Vec<u64> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..128)
            .map(|i| {
                let client = service.client();
                let window = windows[i % windows.len()];
                scope.spawn(move || {
                    client
                        .query(&Query::edge((i % 7) as u64, 7, window))
                        .expect("live service")
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread panicked"))
            .collect()
    });
    assert_eq!(served.len(), 128);
    let plans = service.plans_built();
    assert!(
        plans <= 16,
        "warm tick built {plans} plans for 128 clients over 16 shared windows \
         (bound: at most one per distinct window)"
    );
}

#[test]
fn shutdown_while_in_flight_resolves_every_ticket_and_joins_writers() {
    let service = HiggsService::new(
        HiggsConfig::builder()
            .shards(2)
            .admission_tick(Duration::from_micros(500))
            .build()
            .expect("valid configuration"),
    );
    let census = service.summary().writer_census();
    let ingest = service.client();
    let edges: Vec<StreamEdge> = (0..4_000u64)
        .map(|i| StreamEdge::new(i % 120, (i * 17) % 120, 1 + i % 3, i / 2))
        .collect();
    ingest.insert_all(&edges).expect("live service");

    // 8 client threads fire submissions while the main thread drops the
    // service out from under them. Every ticket must resolve — a real
    // result for submissions admitted before the shutdown marker, the
    // typed shutdown error after — and no wait may hang.
    let resolved: Vec<Result<u64, ServiceError>> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..8)
            .map(|c| {
                let client = service.client();
                scope.spawn(move || {
                    let mut outcomes = Vec::new();
                    for k in 0..32u64 {
                        let tickets: Vec<Ticket> = (0..4)
                            .map(|j| {
                                client.submit(Query::edge(
                                    (c * 13 + k + j) % 120,
                                    ((c * 13 + k + j) * 17) % 120,
                                    TimeRange::new(0, 900),
                                ))
                            })
                            .collect();
                        outcomes.extend(tickets.into_iter().map(Ticket::wait));
                    }
                    outcomes
                })
            })
            .collect();
        // Let some traffic through, then tear the service down mid-flight.
        std::thread::sleep(Duration::from_millis(2));
        drop(service);
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread panicked"))
            .collect()
    });
    assert_eq!(resolved.len(), 8 * 32 * 4, "every ticket must resolve");
    for outcome in &resolved {
        if let Err(e) = outcome {
            assert_eq!(*e, ServiceError::Shutdown, "only shutdown may fail tickets");
        }
    }

    // Teardown joins the serving threads and then the shard writers, so
    // this service's census reads zero as soon as the drop returns.
    assert_eq!(
        census.live(),
        0,
        "service teardown must join every shard writer"
    );

    // Orphaned clients keep failing fast with typed errors.
    assert_eq!(
        ingest.query(&Query::edge(1, 2, TimeRange::all())),
        Err(ServiceError::Shutdown)
    );
    assert!(ingest.insert(&StreamEdge::new(1, 2, 1, 1)).is_err());
}

#[test]
fn options_are_honoured_across_concurrent_classes() {
    // Mixed-priority concurrent traffic: interactive (relaxed), normal, and
    // bulk clients all get correct answers on a settled summary, and an
    // already-expired deadline is reported as such, never evaluated.
    let service = HiggsService::new(
        HiggsConfig::builder()
            .shards(2)
            .admission_tick(Duration::from_micros(500))
            .build()
            .expect("valid configuration"),
    );
    let ingest = service.client();
    let edges: Vec<StreamEdge> = (0..2_000u64)
        .map(|i| StreamEdge::new(i % 60, (i * 11) % 60, 1 + i % 2, i))
        .collect();
    ingest.insert_all(&edges).expect("live service");
    ingest.flush();

    let query = Query::edge(1, 11, TimeRange::all());
    let expected = service.summary().query(&query);
    let outcomes: Vec<Result<u64, ServiceError>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..24)
            .map(|i| {
                let client = service.client();
                let query = query.clone();
                scope.spawn(move || {
                    let options = match i % 4 {
                        0 => QueryOptions::interactive(),
                        1 => QueryOptions::bulk(),
                        2 => QueryOptions::new().deadline(Duration::ZERO),
                        _ => QueryOptions::default(),
                    };
                    client.submit_with(query, options).wait()
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    for (i, outcome) in outcomes.iter().enumerate() {
        match i % 4 {
            2 => assert_eq!(
                *outcome,
                Err(ServiceError::DeadlineExceeded),
                "an already-expired deadline must never be evaluated"
            ),
            _ => assert_eq!(*outcome, Ok(expected), "client {i} diverged"),
        }
    }
}
