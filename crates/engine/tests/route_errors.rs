//! A failed `route` is counted, audited and trace-echoed like any failed
//! request. Its own test binary, so the global metrics start at zero.

use statleak_engine::{ServeConfig, Server};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::AtomicBool;

#[test]
fn failed_route_is_counted_audited_and_traced() {
    let log_path = std::env::temp_dir().join(format!("statleak-route-{}.log", std::process::id()));
    static SHUTDOWN: AtomicBool = AtomicBool::new(false);
    let mut config = ServeConfig::default();
    config.addr = "127.0.0.1:0".to_string();
    config.access_log = Some(log_path.to_string_lossy().into_owned());
    let server = Server::bind(&config, &SHUTDOWN).expect("bind");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run().expect("run"));
    let request = |line: &str| {
        let mut stream = TcpStream::connect(addr).expect("connect");
        writeln!(stream, "{line}").expect("write");
        let mut response = String::new();
        BufReader::new(stream)
            .read_line(&mut response)
            .expect("read");
        response
    };

    // No ring is configured and the request supplies none.
    let routed = request(r#"{"id":1,"op":"route","benchmark":"c17","trace":{"trace_id":"abc"}}"#);
    assert!(routed.contains("no ring configured"), "{routed}");
    let trace = r#""trace_id":"00000000000000000000000000000abc""#;
    assert!(routed.contains(trace), "{routed}");
    let stats = request(r#"{"op":"stats"}"#);
    assert!(stats.contains(r#""request_errors":1"#), "{stats}");
    let metrics = request(r#"{"op":"metrics_text"}"#);
    assert!(
        metrics.contains(r"serve_request_errors_total 1\n"),
        "{metrics}"
    );

    request(r#"{"op":"shutdown"}"#);
    handle.join().expect("server thread");
    let log = std::fs::read_to_string(&log_path).expect("access log");
    let _ = std::fs::remove_file(&log_path);
    assert_eq!(log.lines().count(), 1, "{log}");
    assert!(log.contains(r#""op":"route""#), "{log}");
    assert!(log.contains(r#""outcome":"error""#), "{log}");
    assert!(log.contains(trace), "{log}");
}
