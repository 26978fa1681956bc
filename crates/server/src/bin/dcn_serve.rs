//! `dcn-serve` — the scheduler-as-a-service daemon.
//!
//! Serves the framed JSON protocol over stdin/stdout (`--stdio`) or a
//! TCP listener (`--listen ADDR`), and doubles as a canned-workload
//! generator (`--gen-requests N`) for smoke tests: the generated stream
//! is a deterministic function of `--topology` and `--seed`, so replies
//! can be diffed across runs and worker widths.

use std::io::{self, BufReader, BufWriter, Write};
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::ExitCode;

use dcn_core::online::AdmissionRule;
use dcn_flow::workload::UniformWorkload;
use dcn_server::{
    write_frame, Request, RequestBody, ServeOutcome, ServePolicy, Server, ServerConfig, SubmitFlow,
    TopologySpec,
};
use dcn_solver::fmcf::FmcfSolverConfig;

const USAGE: &str = "\
dcn-serve: scheduler-as-a-service daemon

USAGE:
    dcn-serve --stdio [OPTIONS]
    dcn-serve --listen ADDR [OPTIONS]
    dcn-serve --gen-requests N [--queries] [OPTIONS]

MODES:
    --stdio              serve one framed request stream on stdin/stdout
    --listen ADDR        accept TCP connections on ADDR (e.g. 127.0.0.1:7070),
                         one at a time, until a client sends Shutdown
    --gen-requests N     print a canned stream of N submissions (plus a
                         trailing Shutdown) to stdout and exit

OPTIONS:
    --topology SPEC      fabric to schedule on: fat-tree:K or
                         leaf-spine:L,S,H     [default: fat-tree:4]
    --shard-workers N    worker thread count  [default: 1]
    --policy NAME        edf | greedy | resolve [default: edf]
    --admission NAME     admit-all | reject-infeasible [default: admit-all]
    --algorithm NAME     registry algorithm behind --policy resolve
                         [default: dcfsr]
    --queue-depth N      per-worker job queue bound; a full queue answers
                         Busy                 [default: 1024]
    --retry-after-ms N   retry hint carried by Busy replies [default: 10]
    --seed N             base seed            [default: 1]
    --snapshot-path P    JSON file written on Snapshot requests and
                         restored on startup when present
    --snapshot-every N   also snapshot automatically every N submissions
    --queries            (generator) interleave a QueryFlow after every
                         fifth submission
    --help               print this text
";

struct Cli {
    stdio: bool,
    listen: Option<String>,
    gen_requests: Option<usize>,
    queries: bool,
    config: ServerConfig,
}

fn parse_args() -> Result<Cli, String> {
    let mut cli = Cli {
        stdio: false,
        listen: None,
        gen_requests: None,
        queries: false,
        config: ServerConfig::new(TopologySpec::FatTree { k: 4 }),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} expects a value"));
        match arg.as_str() {
            "--stdio" => cli.stdio = true,
            "--listen" => cli.listen = Some(value("--listen")?),
            "--gen-requests" => {
                cli.gen_requests = Some(parse_num(&value("--gen-requests")?, "--gen-requests")?)
            }
            "--queries" => cli.queries = true,
            "--topology" => cli.config.topology = TopologySpec::parse(&value("--topology")?)?,
            "--shard-workers" => {
                cli.config.shard_workers = parse_num(&value("--shard-workers")?, "--shard-workers")?
            }
            "--policy" => cli.config.policy = ServePolicy::parse(&value("--policy")?)?,
            "--admission" => {
                let name = value("--admission")?;
                cli.config.admission = AdmissionRule::from_name(&name, FmcfSolverConfig::coarse())
                    .ok_or_else(|| {
                        format!(
                            "unknown admission rule {name:?} (expected admit-all or \
                             reject-infeasible)"
                        )
                    })?;
            }
            "--algorithm" => cli.config.algorithm = value("--algorithm")?,
            "--queue-depth" => {
                cli.config.queue_depth = parse_num(&value("--queue-depth")?, "--queue-depth")?
            }
            "--retry-after-ms" => {
                cli.config.retry_after_ms =
                    parse_num(&value("--retry-after-ms")?, "--retry-after-ms")? as u64
            }
            "--seed" => cli.config.seed = parse_num(&value("--seed")?, "--seed")? as u64,
            "--snapshot-path" => {
                cli.config.snapshot_path = Some(PathBuf::from(value("--snapshot-path")?))
            }
            "--snapshot-every" => {
                cli.config.snapshot_every =
                    Some(parse_num(&value("--snapshot-every")?, "--snapshot-every")? as u64)
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?} (see --help)")),
        }
    }
    let modes = usize::from(cli.stdio)
        + usize::from(cli.listen.is_some())
        + usize::from(cli.gen_requests.is_some());
    if modes != 1 {
        return Err("pick exactly one of --stdio, --listen or --gen-requests".to_string());
    }
    Ok(cli)
}

fn parse_num(text: &str, flag: &str) -> Result<usize, String> {
    let n: usize = text
        .parse()
        .map_err(|_| format!("{flag} expects a non-negative integer, got {text:?}"))?;
    if n == 0 && flag != "--seed" {
        return Err(format!("{flag} must be positive"));
    }
    Ok(n)
}

/// Prints a deterministic canned request stream: `n` submissions drawn
/// from the paper's uniform workload on the topology's hosts, sorted by
/// release time, optionally interleaved with queries, and a trailing
/// `Shutdown`.
fn generate_requests(cli: &Cli, n: usize) -> Result<(), String> {
    let built = cli.config.topology.build();
    let workload = UniformWorkload::paper_defaults(n, cli.config.seed);
    let flows = workload
        .generate(&built.hosts)
        .map_err(|e| format!("workload generation failed: {e}"))?;
    let mut flows: Vec<_> = flows.iter().cloned().collect();
    flows.sort_by(|a, b| {
        a.release
            .partial_cmp(&b.release)
            .expect("workload times are finite")
            .then(a.id.cmp(&b.id))
    });
    let stdout = io::stdout();
    let mut out = BufWriter::new(stdout.lock());
    let mut req_id = 0u64;
    let mut emit = |body: RequestBody, out: &mut BufWriter<_>| -> io::Result<()> {
        let request = Request::new(req_id, body);
        req_id += 1;
        write_frame(out, &request)
    };
    for (submitted, flow) in flows.iter().enumerate() {
        emit(
            RequestBody::SubmitFlow(SubmitFlow {
                src: flow.src.0,
                dst: flow.dst.0,
                release: flow.release,
                deadline: flow.deadline,
                volume: flow.volume,
            }),
            &mut out,
        )
        .map_err(|e| e.to_string())?;
        // Server-side flow ids are dense in dispatch order, so the id of
        // the submission just sent is predictable.
        if cli.queries && (submitted + 1) % 5 == 0 {
            emit(
                RequestBody::QueryFlow {
                    flow: submitted as u64,
                },
                &mut out,
            )
            .map_err(|e| e.to_string())?;
        }
    }
    emit(RequestBody::Shutdown, &mut out).map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())
}

fn serve_stdio(server: &mut Server) -> io::Result<ServeOutcome> {
    let stdin = io::stdin();
    let stdout = io::stdout();
    let mut reader = BufReader::new(stdin.lock());
    let mut writer = BufWriter::new(stdout.lock());
    server.serve_connection(&mut reader, &mut writer)
}

fn serve_tcp(server: &mut Server, addr: &str) -> io::Result<()> {
    let listener = TcpListener::bind(addr)?;
    eprintln!("dcn-serve: listening on {addr}");
    for stream in listener.incoming() {
        let stream = stream?;
        let mut reader = BufReader::new(stream.try_clone()?);
        let mut writer = BufWriter::new(stream);
        match server.serve_connection(&mut reader, &mut writer) {
            Ok(ServeOutcome::Shutdown) => return Ok(()),
            Ok(ServeOutcome::Eof) => continue,
            // A dead client must not take down the daemon.
            Err(e) => eprintln!("dcn-serve: connection failed: {e}"),
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let cli = match parse_args() {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("dcn-serve: {msg}");
            return ExitCode::from(2);
        }
    };
    if let Some(n) = cli.gen_requests {
        return match generate_requests(&cli, n) {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("dcn-serve: {msg}");
                ExitCode::FAILURE
            }
        };
    }
    let mut server = match Server::start(cli.config.clone()) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("dcn-serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = if cli.stdio {
        serve_stdio(&mut server).map(|_| ())
    } else {
        serve_tcp(&mut server, cli.listen.as_deref().expect("mode checked"))
    };
    server.shutdown();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("dcn-serve: {e}");
            ExitCode::FAILURE
        }
    }
}
