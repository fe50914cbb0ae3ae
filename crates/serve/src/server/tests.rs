//! Unit tests of the event loop's waiting: they count its sweeps
//! through the test-only counter in [`super::Shared`].

use super::*;
use cned_core::levenshtein::Levenshtein;
use cned_search::LinearIndex;
use std::net::Shutdown;

/// Levenshtein slowed to a fixed delay per evaluation: holds the
/// scheduler busy while the event loop waits for the answer.
struct Slow(Duration);

impl Distance<u8> for Slow {
    fn distance(&self, a: &[u8], b: &[u8]) -> f64 {
        std::thread::sleep(self.0);
        Distance::<u8>::distance(&Levenshtein, a, b)
    }
    fn name(&self) -> &'static str {
        "d_E(slow)"
    }
    fn is_metric(&self) -> bool {
        true
    }
}

fn words() -> LinearIndex<u8> {
    LinearIndex::new(vec![b"casa".to_vec(), b"cosa".to_vec(), b"masa".to_vec()])
}

fn sweeps<I: MetricIndex<u8>>(server: &Server<u8, I>) -> usize {
    server.shared.sweeps.load(Ordering::Relaxed)
}

#[test]
fn a_loop_owing_an_answer_to_a_half_closed_peer_does_not_spin() {
    let delay = Duration::from_millis(100);
    let server = Server::bind_with(
        "127.0.0.1:0",
        words(),
        Arc::new(Slow(delay)),
        ServerConfig::new().event_loop_threads(1),
    )
    .unwrap();
    let before = sweeps(&server);
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut payload = Vec::new();
    let request = Request::Nn {
        query: b"cesa".to_vec(),
    };
    wire::encode_request(RequestId(7), &request, &mut payload);
    wire::write_frame(&mut stream, &payload).unwrap();
    // The peer is done sending while its answer (three slow
    // evaluations, ~300 ms) is still being computed.
    stream.shutdown(Shutdown::Write).unwrap();

    let mut frame = Vec::new();
    assert!(wire::read_frame(&mut stream, &mut frame).unwrap().is_some());
    let during = sweeps(&server) - before;
    let response = wire::decode_response(&frame).unwrap();
    assert_eq!(response.id, RequestId(7));
    assert!(
        matches!(
            response.body,
            ResponseBody::Nn {
                neighbour: Some(_),
                ..
            }
        ),
        "{:?}",
        response.body
    );
    // Admission, the frame, EOF and the answer each take a sweep
    // or two; a loop that woke for the readable EOF, or slept in
    // short naps, would sweep hundreds of times.
    assert!(during <= 24, "{during} sweeps while one answer was pending");
    // Answered and drained: the server closes the connection.
    assert!(wire::read_frame(&mut stream, &mut frame).unwrap().is_none());
    server.shutdown();
}

#[test]
fn an_idle_server_with_idle_connections_makes_no_sweeps() {
    let server = Server::bind_with(
        "127.0.0.1:0",
        words(),
        Arc::new(Levenshtein),
        ServerConfig::new(),
    )
    .unwrap();
    let addr = server.local_addr();
    let conns: Vec<TcpStream> = (0..64).map(|_| TcpStream::connect(addr).unwrap()).collect();
    // Wait until every connection is admitted and the loops have
    // gone quiet.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut last = usize::MAX;
    loop {
        std::thread::sleep(Duration::from_millis(50));
        let now = sweeps(&server);
        if server.shared.conns.load(Ordering::Acquire) == conns.len() && now == last {
            break;
        }
        assert!(Instant::now() < deadline, "the loops never went quiet");
        last = now;
    }
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(sweeps(&server), last, "an idle server must wait, not sweep");
    drop(conns);
    server.shutdown();
}
