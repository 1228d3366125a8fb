//! Property tests on the parser production uses: [`RequestParser`] is
//! total (never panics, never buffers past its caps without an `Err`),
//! yields the same requests however the bytes are cut, and refuses
//! framing it cannot measure; the response wire format carries a correct
//! `Content-Length`.

use odbis_web::{
    percent_decode, HttpRequest, HttpResponse, Method, RequestParser, MAX_BODY_BYTES,
    MAX_HEAD_BYTES,
};
use proptest::prelude::*;

/// What a connection saw: the requests parsed before the first error,
/// that error if any, and the bytes left in the parser.
struct Outcome {
    requests: Vec<HttpRequest>,
    error: Option<String>,
    buffered: usize,
}

/// Cut `wire` at `cuts` (any values; taken modulo the length) and deliver
/// it as the reactor does: feed a chunk, drain every complete request,
/// stop at the first `Err` (the server answers 400 and closes).
fn drive(wire: &[u8], cuts: &[usize]) -> Outcome {
    let mut at: Vec<usize> = cuts.iter().map(|c| c % (wire.len() + 1)).collect();
    at.push(wire.len());
    at.sort_unstable();
    let mut parser = RequestParser::new();
    let mut requests = Vec::new();
    let mut start = 0;
    for end in at {
        parser.feed(&wire[start..end]);
        start = end;
        loop {
            match parser.try_next() {
                Ok(Some(request)) => requests.push(request),
                Ok(None) => break,
                Err(error) => {
                    return Outcome {
                        requests,
                        error: Some(error),
                        buffered: parser.buffered(),
                    }
                }
            }
        }
    }
    Outcome {
        requests,
        error: None,
        buffered: parser.buffered(),
    }
}

/// One generated request: `(stray CRLFs before it, has a body, path,
/// body, header value)`.
type Spec = (usize, bool, String, String, String);

fn request_spec() -> impl Strategy<Value = Spec> {
    (
        0usize..3,
        any::<bool>(),
        "/[a-z0-9/]{0,20}",
        "[ -~]{0,60}",
        "[a-zA-Z0-9 ]{0,20}",
    )
}

fn render(specs: &[Spec]) -> Vec<u8> {
    let mut wire = String::new();
    for (strays, has_body, path, body, header) in specs {
        wire.push_str(&"\r\n".repeat(*strays));
        if *has_body {
            wire.push_str(&format!(
                "POST {path} HTTP/1.1\r\nX-Custom: {header}\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            ));
        } else {
            wire.push_str(&format!(
                "GET {path} HTTP/1.1\r\nX-Custom: {header}\r\n\r\n"
            ));
        }
    }
    wire.into_bytes()
}

proptest! {
    /// Arbitrary bytes at arbitrary split points never panic, and a parser
    /// that has not errored holds at most one request's worth of bytes.
    #[test]
    fn parser_is_total_and_bounded(
        head in prop::sample::select(vec!["", "GET / HTTP/1.1\r\n", "POST /x HTTP/1.1\r\nContent-Length: 9\r\n"]),
        bytes in prop::collection::vec(any::<u8>(), 0..300),
        cuts in prop::collection::vec(0usize..400, 0..6),
    ) {
        let wire = [head.as_bytes(), &bytes].concat();
        let outcome = drive(&wire, &cuts);
        if outcome.error.is_none() {
            prop_assert!(outcome.buffered <= MAX_HEAD_BYTES + MAX_BODY_BYTES);
        }
    }

    /// 1–4 well-formed requests, with and without bodies and with stray
    /// CRLFs between them, parse to the same requests in the same order
    /// fed whole, byte by byte, or at random cuts — and leave nothing
    /// buffered.
    #[test]
    fn split_points_do_not_change_what_is_parsed(
        specs in prop::collection::vec(request_spec(), 1..5),
        cuts in prop::collection::vec(0usize..2000, 0..8),
    ) {
        let wire = render(&specs);
        let every_byte: Vec<usize> = (0..wire.len()).collect();
        for cuts in [&[][..], &every_byte, &cuts] {
            let outcome = drive(&wire, cuts);
            prop_assert_eq!(outcome.error, None);
            prop_assert_eq!(outcome.buffered, 0);
            prop_assert_eq!(outcome.requests.len(), specs.len());
            for (request, (_, has_body, path, body, header)) in outcome.requests.iter().zip(&specs) {
                let method = if *has_body { Method::Post } else { Method::Get };
                prop_assert_eq!(request.method, method);
                prop_assert_eq!(&request.path, path);
                prop_assert_eq!(request.body_text(), if *has_body { body.as_str() } else { "" });
                prop_assert_eq!(request.header("x-custom"), Some(header.trim()));
            }
        }
    }

    /// A body length the parser cannot measure is an `Err`, however the
    /// bytes arrive — never a guessed length that would let the bytes
    /// after the head be served as a second request.
    #[test]
    fn unmeasurable_framing_never_yields_a_request(
        framing in prop::sample::select(vec![
            "Content-Length: abc",
            "Content-Length: -1",
            "Content-Length: 1e3",
            "Content-Length: 4\r\nContent-Length: 27",
            "Transfer-Encoding: chunked",
            "Content-Length: 27\r\nTransfer-Encoding: chunked",
        ]),
        cuts in prop::collection::vec(0usize..200, 0..6),
    ) {
        let wire = format!("POST /x HTTP/1.1\r\n{framing}\r\n\r\nGET /admin HTTP/1.1\r\n\r\n");
        let outcome = drive(wire.as_bytes(), &cuts);
        prop_assert!(outcome.error.is_some(), "{framing:?} was accepted");
        prop_assert!(outcome.requests.is_empty(), "{framing:?} desynced: {:?}", outcome.requests);
    }

    /// Percent decoding never panics and is identity on unreserved text.
    #[test]
    fn percent_decode_total(s in ".{0,80}") {
        let _ = percent_decode(&s);
    }

    #[test]
    fn percent_decode_identity_on_plain(s in "[a-zA-Z0-9_.~/-]{0,40}") {
        prop_assert_eq!(percent_decode(&s), s);
    }

    /// Responses always serialize with a correct Content-Length.
    #[test]
    fn response_content_length(body in prop::collection::vec(any::<u8>(), 0..200), status in 200u16..600) {
        let wire = HttpResponse::status(status).with_body(body.clone()).to_bytes(false);
        let text = String::from_utf8_lossy(&wire);
        let cl = format!("Content-Length: {}", body.len());
        prop_assert!(text.contains(&cl));
        let sl = format!("HTTP/1.1 {status} ");
        prop_assert!(text.starts_with(&sl));
        prop_assert!(wire.ends_with(&body));
    }
}
