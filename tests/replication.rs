//! Primary → replica streaming through the facade: a replica catches
//! up (snapshot, then log tail), serves reads bit-identically to the
//! primary — under many concurrent connections — rejects writes with a
//! typed error, and a *restarted* replica resumes from its own disk,
//! fetching only the tail it missed.

use cned::prelude::*;
use cned::{ClientError, ReplicaHandle, ServerConfig};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn words() -> Vec<Vec<u8>> {
    [
        "casa", "cosa", "masa", "taza", "cesta", "pasta", "costa", "caza",
    ]
    .iter()
    .map(|w| w.as_bytes().to_vec())
    .collect()
}

fn queries() -> Vec<Vec<u8>> {
    [b"cesa".to_vec(), b"tapa".to_vec(), b"sopas".to_vec()].to_vec()
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cned-repl-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Block until the replica has applied `want` items (generous bound:
/// the stream crosses a real TCP connection and a scheduler barrier).
fn await_applied(replica: &ReplicaHandle<u8>, want: u64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while replica.applied() < want {
        assert!(
            Instant::now() < deadline,
            "replica stuck at {} of {want} items",
            replica.applied()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn nn_all(addr: SocketAddr) -> Vec<(Option<cned::Neighbour>, cned::SearchStats)> {
    let mut client: Client<u8> = Client::connect(addr).unwrap();
    queries().iter().map(|q| client.nn(q).unwrap()).collect()
}

#[test]
fn replica_streams_serves_reads_and_survives_restart() {
    let primary_dir = fresh_dir("primary");
    let replica_dir = fresh_dir("replica");

    let db = Database::builder(words())
        .metric(Metric::Contextual { bounded: true })
        .backend(Backend::Laesa { pivots: 2 })
        .shards(2)
        .build()
        .unwrap();
    let primary = db
        .serve_with(
            "127.0.0.1:0",
            ServerConfig::default().data_dir(&primary_dir),
        )
        .unwrap();
    let p_addr = primary.local_addr();

    // Fresh replica: full snapshot transfer, then the live stream.
    let replica =
        Database::<u8>::replica(p_addr, &replica_dir, "127.0.0.1:0", ServerConfig::default())
            .unwrap();
    assert_eq!(replica.applied(), words().len() as u64);
    let r_addr = replica.local_addr();

    // Writes flow to the primary and stream across live.
    let mut writer: Client<u8> = Client::connect(p_addr).unwrap();
    for w in [b"tapa".as_slice(), b"sopa", b"ropa"] {
        writer.insert(w).unwrap();
    }
    await_applied(&replica, words().len() as u64 + 3);

    // Caught up, the replica answers bit-identically to the primary.
    assert_eq!(nn_all(p_addr), nn_all(r_addr));

    // And rejects writes with the typed read-only error. (The reason
    // string canonicalises crossing the wire; the code is what's
    // pinned.)
    let mut to_replica: Client<u8> = Client::connect(r_addr).unwrap();
    match to_replica.insert(b"nope") {
        Err(ClientError::Search(SearchError::UnsupportedConfig { .. })) => {}
        other => panic!("expected a typed read-only rejection, got {other:?}"),
    }
    drop(to_replica);

    // Restart the replica: it recovers from its own disk and fetches
    // only the tail written while it was down.
    drop(replica);
    for w in [b"vaso".as_slice(), b"caso"] {
        writer.insert(w).unwrap();
    }
    let replica =
        Database::<u8>::replica(p_addr, &replica_dir, "127.0.0.1:0", ServerConfig::default())
            .unwrap();
    assert_eq!(replica.applied(), words().len() as u64 + 5);
    assert_eq!(nn_all(p_addr), nn_all(replica.local_addr()));

    drop(replica);
    drop(writer);
    drop(primary);
    let _ = std::fs::remove_dir_all(&primary_dir);
    let _ = std::fs::remove_dir_all(&replica_dir);
}

/// The acceptance bar from the issue: primary and caught-up replica
/// answer bit-identically with 64+ clients connected concurrently,
/// half of them interrogating each side.
#[test]
fn primary_and_replica_agree_under_64_concurrent_connections() {
    let primary_dir = fresh_dir("conc-primary");
    let replica_dir = fresh_dir("conc-replica");

    let db = Database::builder(words())
        .metric(Metric::Levenshtein)
        .build()
        .unwrap();
    let primary = db
        .serve_with(
            "127.0.0.1:0",
            ServerConfig::default()
                .data_dir(&primary_dir)
                .max_connections(256),
        )
        .unwrap();
    let p_addr = primary.local_addr();
    let replica = Database::<u8>::replica(
        p_addr,
        &replica_dir,
        "127.0.0.1:0",
        ServerConfig::default().max_connections(256),
    )
    .unwrap();
    let r_addr = replica.local_addr();

    let mut writer: Client<u8> = Client::connect(p_addr).unwrap();
    for w in [b"tapa".as_slice(), b"sopa"] {
        writer.insert(w).unwrap();
    }
    await_applied(&replica, words().len() as u64 + 2);

    // The reference answer, gathered single-threaded from the primary.
    let reference = nn_all(p_addr);

    let handles: Vec<_> = (0..64)
        .map(|i| {
            let addr = if i % 2 == 0 { p_addr } else { r_addr };
            std::thread::spawn(move || nn_all(addr))
        })
        .collect();
    for handle in handles {
        let got = handle.join().expect("client thread panicked");
        assert_eq!(got, reference);
    }

    drop(writer);
    drop(replica);
    drop(primary);
    let _ = std::fs::remove_dir_all(&primary_dir);
    let _ = std::fs::remove_dir_all(&replica_dir);
}

#[test]
fn a_replica_on_another_event_loop_hears_each_write() {
    let primary_dir = fresh_dir("loops-primary");
    let replica_dir = fresh_dir("loops-replica");

    let db = Database::builder(words())
        .metric(Metric::Levenshtein)
        .build()
        .unwrap();
    // Two event loops take connections in turn: the replica's
    // registration is the primary's first connection (loop 0), the
    // writer its second (loop 1). Nothing else talks to the primary,
    // so only the hub's wake tells loop 0 that a write is waiting.
    let primary = db
        .serve_with(
            "127.0.0.1:0",
            ServerConfig::default()
                .data_dir(&primary_dir)
                .event_loop_threads(2),
        )
        .unwrap();
    let p_addr = primary.local_addr();
    let replica =
        Database::<u8>::replica(p_addr, &replica_dir, "127.0.0.1:0", ServerConfig::default())
            .unwrap();
    let mut writer: Client<u8> = Client::connect(p_addr).unwrap();
    let bound = Duration::from_secs(5);

    let index = writer.insert(b"tapa").unwrap();
    let deadline = Instant::now() + bound;
    while replica.applied() < words().len() as u64 + 1 {
        assert!(
            Instant::now() < deadline,
            "the replica never heard the insert"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    assert!(writer.delete(index).unwrap());
    // The delete has landed once "tapa" is no longer its own nearest
    // neighbour on the replica.
    let mut reader: Client<u8> = Client::connect(replica.local_addr()).unwrap();
    let deadline = Instant::now() + bound;
    while reader.nn(b"tapa").unwrap().0.map(|n| n.index) == Some(index) {
        assert!(
            Instant::now() < deadline,
            "the replica never heard the delete"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    drop(reader);
    drop(writer);
    drop(replica);
    drop(primary);
    let _ = std::fs::remove_dir_all(&primary_dir);
    let _ = std::fs::remove_dir_all(&replica_dir);
}
