//! `serve-client` — scripted queries against a running `updp-serve`.
//!
//! ```text
//! serve-client --addr HOST:PORT <command> [args]
//!
//! commands:
//!   register NAME --budget E (--data x,y,… | --gaussian N)
//!   append   NAME --data x,y,…
//!   flush    NAME
//!   drop     NAME
//!   list
//!   query    NAME --seed S [--mean E] [--variance E]
//!            [--quantile Q:E] [--iqr E] [--multi-mean E]
//!            [--estimator NAME:E]... [--param k=v]...
//!   estimators
//!   healthz
//!   metrics [--json]
//!   trace
//!   shutdown
//! ```
//!
//! Prints the server's JSON response body on stdout. Exits 0 on a 2xx
//! response, 1 otherwise (so shell pipelines can assert refusals —
//! the CI smoke step relies on a budget-exhausted query exiting
//! nonzero).

use updp_serve::client::{query_body_named, ClientError, Connection, NamedQuery};
use updp_serve::wire::MAX_SEED;

fn die(message: &str) -> ! {
    eprintln!("serve-client: {message}");
    std::process::exit(2);
}

fn parse_data(text: &str) -> Vec<f64> {
    text.split(',')
        .map(|tok| {
            tok.trim()
                .parse::<f64>()
                .unwrap_or_else(|_| die(&format!("bad number `{tok}` in --data")))
        })
        .collect()
}

/// Parses `--seed` as an integer up to the wire's [`MAX_SEED`]; any
/// other text is refused, never rounded, so the server gets that seed.
fn parse_seed(text: &str) -> Result<u64, String> {
    (text.parse::<u64>().ok())
        .filter(|&seed| seed <= MAX_SEED)
        .ok_or_else(|| format!("--seed needs an integer in [0, 2^53], got `{text}`"))
}

/// Deterministic Gaussian(100, 5) sample for quickstart registration:
/// Box–Muller standard normals `z` (a draw `u1 ≤ 0` or a non-finite `z`
/// is redrawn), scaled to `100 + 5z`.
fn gaussian(n: usize) -> Vec<f64> {
    use rand::Rng;
    let mut rng = updp_core::rng::seeded(0xDA7A);
    let mut standard_normal = || loop {
        let u1: f64 = rng.gen();
        if u1 <= 0.0 {
            continue;
        }
        let u2: f64 = rng.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        if z.is_finite() {
            return z;
        }
    };
    (0..n).map(|_| 100.0 + 5.0 * standard_normal()).collect()
}

struct Args(Vec<String>);

impl Args {
    fn flag(&mut self, name: &str) -> bool {
        if let Some(i) = self.0.iter().position(|a| a == name) {
            self.0.remove(i);
            true
        } else {
            false
        }
    }

    fn value(&mut self, name: &str) -> Option<String> {
        let i = self.0.iter().position(|a| a == name)?;
        if i + 1 >= self.0.len() {
            die(&format!("{name} needs a value"));
        }
        self.0.remove(i);
        Some(self.0.remove(i))
    }

    fn f64_value(&mut self, name: &str) -> Option<f64> {
        self.value(name).map(|v| {
            v.parse()
                .unwrap_or_else(|_| die(&format!("{name} needs a number, got `{v}`")))
        })
    }

    fn positional(&mut self) -> Option<String> {
        let i = self.0.iter().position(|a| !a.starts_with("--"))?;
        Some(self.0.remove(i))
    }

    fn finish(self) {
        if let Some(extra) = self.0.first() {
            die(&format!("unexpected argument `{extra}`"));
        }
    }
}

/// One parsed command, waiting for the connection it runs on.
type Call = Box<dyn FnOnce(&mut Connection) -> Result<String, ClientError>>;

fn main() {
    let mut args = Args(std::env::args().skip(1).collect());
    let addr = args
        .value("--addr")
        .unwrap_or_else(|| "127.0.0.1:7817".into());
    let command = args.positional().unwrap_or_else(|| die("missing command"));

    // The whole command line is parsed before connecting, so a usage
    // error is reported as one even while the server is down.
    let call: Call = match command.as_str() {
        "register" => {
            let name = args.positional().unwrap_or_else(|| die("register NAME"));
            let budget = args
                .f64_value("--budget")
                .unwrap_or_else(|| die("register needs --budget"));
            let data = match (args.value("--data"), args.value("--gaussian")) {
                (Some(text), None) => parse_data(&text),
                (None, Some(n)) => gaussian(
                    n.parse()
                        .unwrap_or_else(|_| die(&format!("bad --gaussian `{n}`"))),
                ),
                _ => die("register needs exactly one of --data / --gaussian"),
            };
            args.finish();
            Box::new(move |c| c.register(&name, budget, &data))
        }
        "append" => {
            let name = args.positional().unwrap_or_else(|| die("append NAME"));
            let data = args
                .value("--data")
                .map(|text| parse_data(&text))
                .unwrap_or_else(|| die("append needs --data"));
            args.finish();
            Box::new(move |c| c.append(&name, &data))
        }
        "flush" => {
            let name = args.positional().unwrap_or_else(|| die("flush NAME"));
            args.finish();
            Box::new(move |c| c.flush(&name))
        }
        "drop" => {
            let name = args.positional().unwrap_or_else(|| die("drop NAME"));
            args.finish();
            let body = updp_core::json::JsonValue::object(vec![("name", name.as_str().into())])
                .to_compact();
            Box::new(move |c| c.request("POST", "/v1/drop", &body))
        }
        "list" => {
            args.finish();
            Box::new(|c| c.request("GET", "/v1/datasets", ""))
        }
        "query" => {
            let name = args.positional().unwrap_or_else(|| die("query NAME"));
            let seed = args
                .value("--seed")
                .map(|text| parse_seed(&text).unwrap_or_else(|e| die(&e)))
                .unwrap_or_else(|| die("query needs --seed"));
            // Any catalog estimator by name: --estimator NAME:E with
            // its parameters as repeated --param k=v (applied to every
            // --estimator query in the request).
            let mut named: Vec<(String, f64)> = Vec::new();
            while let Some(spec) = args.value("--estimator") {
                let (est, eps) = spec
                    .split_once(':')
                    .unwrap_or_else(|| die("--estimator needs NAME:E"));
                named.push((
                    est.to_string(),
                    eps.parse().unwrap_or_else(|_| die("bad --estimator ε")),
                ));
            }
            let mut params: Vec<(String, f64)> = Vec::new();
            while let Some(kv) = args.value("--param") {
                let (k, v) = kv
                    .split_once('=')
                    .unwrap_or_else(|| die("--param needs k=v"));
                params.push((
                    k.to_string(),
                    v.parse().unwrap_or_else(|_| die("bad --param value")),
                ));
            }
            // The kind flags are named queries too, sent ahead of the
            // --estimator ones: `--quantile Q:E` is `quantile` with
            // param `q`.
            let query = |estimator, epsilon, params| NamedQuery {
                estimator,
                epsilon,
                params,
            };
            let mut queries: Vec<NamedQuery<'_>> = Vec::new();
            if let Some(eps) = args.f64_value("--mean") {
                queries.push(query("mean", eps, Vec::new()));
            }
            if let Some(eps) = args.f64_value("--variance") {
                queries.push(query("variance", eps, Vec::new()));
            }
            if let Some(spec) = args.value("--quantile") {
                let (q, eps) = spec
                    .split_once(':')
                    .unwrap_or_else(|| die("--quantile needs Q:E"));
                queries.push(query(
                    "quantile",
                    eps.parse().unwrap_or_else(|_| die("bad --quantile ε")),
                    vec![(
                        "q",
                        q.parse().unwrap_or_else(|_| die("bad --quantile level")),
                    )],
                ));
            }
            if let Some(eps) = args.f64_value("--iqr") {
                queries.push(query("iqr", eps, Vec::new()));
            }
            if let Some(eps) = args.f64_value("--multi-mean") {
                queries.push(query("multi-mean", eps, Vec::new()));
            }
            for (est, eps) in &named {
                let params = params.iter().map(|(k, v)| (k.as_str(), *v)).collect();
                queries.push(query(est, *eps, params));
            }
            if queries.is_empty() {
                die("query needs at least one of --mean/--variance/--quantile/--iqr/--multi-mean/--estimator");
            }
            args.finish();
            let body = query_body_named(&name, seed, &queries);
            Box::new(move |c| c.query(&body))
        }
        "estimators" => {
            args.finish();
            Box::new(|c| c.request("GET", "/v1/estimators", ""))
        }
        "healthz" => {
            args.finish();
            Box::new(Connection::healthz)
        }
        "metrics" => {
            let json = args.flag("--json");
            args.finish();
            if json {
                Box::new(Connection::metrics_json)
            } else {
                Box::new(Connection::metrics_text)
            }
        }
        "trace" => {
            args.finish();
            Box::new(Connection::trace)
        }
        "shutdown" => {
            args.finish();
            Box::new(Connection::shutdown)
        }
        other => die(&format!("unknown command `{other}`")),
    };

    let mut connection =
        Connection::open(&addr).unwrap_or_else(|e| die(&format!("cannot reach {addr}: {e}")));
    let result = call(&mut connection);

    match result {
        Ok(body) => println!("{body}"),
        Err(ClientError::Status { status, body }) => {
            println!("{body}");
            eprintln!("serve-client: http {status}");
            std::process::exit(1);
        }
        Err(ClientError::Transport(reason)) => {
            eprintln!("serve-client: {reason}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use updp_dist::ContinuousDistribution;

    #[test]
    fn seed_is_sent_as_given_or_refused() {
        use super::{parse_seed, MAX_SEED};
        assert_eq!(parse_seed("0"), Ok(0));
        assert_eq!(parse_seed("9007199254740992"), Ok(MAX_SEED));
        // Each of these used to pass through an f64 and reach the
        // server as a different seed (0, 0, 1 and 2^53).
        for refused in ["-1", "nan", "1.5", "9007199254740993"] {
            let err = parse_seed(refused).unwrap_err();
            assert!(err.contains(refused), "{refused}: {err}");
        }
    }

    #[test]
    fn demo_data_matches_the_distribution_layer_bit_for_bit() {
        let expected = updp_dist::Gaussian::new(100.0, 5.0)
            .expect("valid parameters")
            .sample_vec(&mut updp_core::rng::seeded(0xDA7A), 5000);
        let got = super::gaussian(5000);
        assert_eq!(got.len(), expected.len());
        for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
            assert_eq!(g.to_bits(), e.to_bits(), "draw {i}: {g} vs {e}");
        }
    }
}
