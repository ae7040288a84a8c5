//! Differential suite: `chordal serve` responses must be **byte-identical**
//! to the `chordal extract` CLI output for the same graph, algorithm and
//! configuration.
//!
//! The expected bytes are produced in-process through the exact call
//! sequence `cmd_extract` runs (`load_graph` → `ExtractionSession::extract`
//! → `edge_subgraph` → `write_edge_list`), then compared against the
//! `payload=edges` bytes the server frames. The matrix covers all five
//! algorithm configurations (alg1, reference, dearing, partitioned,
//! alg1+repair), both on-disk representations (text edge list and binary
//! CSR), and both graph addressing forms (`path=` and resident
//! `graph=<hash>`). Extractions use `semantics=sync`, the deterministic
//! mode, so expected bytes are well-defined under any
//! `CHORDAL_POOL_THREADS` setting — CI runs this suite across the
//! {1,2,8} matrix.

use maximal_chordal::graph::io::{write_edge_list, write_edge_list_file};
use maximal_chordal::graph::storage::{convert_edge_list_to_binary, load_graph};
use maximal_chordal::graph::subgraph::edge_subgraph;
use maximal_chordal::prelude::*;
use maximal_chordal::serve::{ServeClient, ServeConfig, Server, ServerHandle};

/// One algorithm configuration of the differential matrix: the request
/// arguments and the matching in-process [`ExtractorConfig`].
struct Case {
    label: &'static str,
    request_args: String,
    config: ExtractorConfig,
}

fn cases(engine: &str, threads: usize) -> Vec<Case> {
    let base = || {
        ExtractorConfig::default()
            .with_semantics(Semantics::Synchronous)
            .with_engine_name(engine, threads)
            .expect("engine spelling")
    };
    let shared = format!("semantics=sync engine={engine} threads={threads}");
    vec![
        Case {
            label: "alg1",
            request_args: format!("algorithm=alg1 {shared}"),
            config: base().with_algorithm(Algorithm::Parallel),
        },
        Case {
            label: "reference",
            request_args: format!("algorithm=reference {shared}"),
            config: base().with_algorithm(Algorithm::Reference),
        },
        Case {
            label: "dearing",
            request_args: format!("algorithm=dearing {shared}"),
            config: base().with_algorithm(Algorithm::Dearing),
        },
        Case {
            label: "partitioned",
            request_args: format!("algorithm=partitioned partitions=4 {shared}"),
            config: base()
                .with_algorithm(Algorithm::Partitioned)
                .with_partitions(4),
        },
        Case {
            label: "alg1+repair",
            request_args: format!("algorithm=alg1 repair=true {shared}"),
            config: base().with_algorithm(Algorithm::Parallel).with_repair(true),
        },
    ]
}

/// The byte-exact output `chordal extract --out` would write for this
/// graph file and configuration.
fn cli_path_bytes(path: &std::path::Path, config: ExtractorConfig) -> Vec<u8> {
    let loaded = load_graph(path, None).expect("loading input");
    let view = loaded.as_graph_ref();
    let mut session = ExtractionSession::new(config);
    let result = session.extract(view);
    let sub = edge_subgraph(view, result.edges());
    let mut bytes = Vec::new();
    write_edge_list(&sub, &mut bytes).expect("serialising to memory");
    bytes
}

struct Fixture {
    handle: ServerHandle,
    txt: std::path::PathBuf,
    bin: std::path::PathBuf,
}

impl Fixture {
    fn start(tag: &str, graph: &CsrGraph) -> Fixture {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let txt = dir.join(format!("chordal_serve_diff_{pid}_{tag}.txt"));
        let bin = dir.join(format!("chordal_serve_diff_{pid}_{tag}.bin"));
        write_edge_list_file(graph, &txt).expect("writing text edge list");
        convert_edge_list_to_binary(&txt, &bin).expect("streaming conversion");
        let handle = Server::start(ServeConfig::default()).expect("starting server");
        Fixture { handle, txt, bin }
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        self.handle.shutdown();
        let _ = std::fs::remove_file(&self.txt);
        let _ = std::fs::remove_file(&self.bin);
    }
}

/// Runs the full matrix for one generated workload.
fn run_matrix(tag: &str, graph: CsrGraph) {
    // Two threads keeps the parallel engines honest without oversubscribing
    // the CI matrix; sync semantics makes the result deterministic anyway.
    let (engine, threads) = ("rayon", 2);
    let fixture = Fixture::start(tag, &graph);
    let mut client = ServeClient::connect(fixture.handle.addr()).expect("connecting");

    // Resident form: LOAD both representations; one graph, one key.
    let load = |client: &mut ServeClient, path: &std::path::Path| {
        let response = client
            .request(&format!("LOAD path={}", path.display()))
            .unwrap();
        assert!(response.ok(), "{}", response.raw);
        response.str_field("graph").unwrap().to_string()
    };
    let hash_txt = load(&mut client, &fixture.txt);
    let hash_bin = load(&mut client, &fixture.bin);
    assert_eq!(
        hash_txt, hash_bin,
        "text and binary representations of one graph must share a key"
    );

    for case in cases(engine, threads) {
        for (repr, path) in [("text", &fixture.txt), ("binary", &fixture.bin)] {
            let expected = cli_path_bytes(path, case.config.clone());
            // Addressing by path.
            let by_path = client
                .request(&format!(
                    "EXTRACT path={} {} payload=edges",
                    path.display(),
                    case.request_args
                ))
                .unwrap();
            assert!(by_path.ok(), "{tag}/{}/{repr}: {}", case.label, by_path.raw);
            assert_eq!(
                by_path.payload, expected,
                "{tag}/{}/{repr}: serve bytes differ from the CLI output (by path)",
                case.label
            );
            // Addressing the resident graph by content hash.
            let by_hash = client
                .request(&format!(
                    "EXTRACT graph={hash_bin} {} payload=edges",
                    case.request_args
                ))
                .unwrap();
            assert!(by_hash.ok(), "{tag}/{}/{repr}: {}", case.label, by_hash.raw);
            assert_eq!(
                by_hash.payload, expected,
                "{tag}/{}/{repr}: serve bytes differ from the CLI output (by hash)",
                case.label
            );
            // The frame's summary fields must agree with the payload.
            let sub_edges = by_path.u64_field("chordal_edges").unwrap();
            assert!(sub_edges > 0, "{tag}/{}: empty extraction", case.label);
        }
        // The algorithm echo uses the registry's repaired naming.
        let echo = client
            .request(&format!("EXTRACT graph={hash_bin} {}", case.request_args))
            .unwrap();
        let expected_name = if case.label == "alg1+repair" {
            "alg1+repair".to_string()
        } else {
            case.label.to_string()
        };
        assert_eq!(
            echo.str_field("algorithm"),
            Some(expected_name.as_str()),
            "{}",
            echo.raw
        );
    }
}

#[test]
fn serve_matches_cli_output_on_an_rmat_graph() {
    run_matrix("rmat_g8", RmatParams::preset(RmatKind::G, 8, 31).generate());
}

#[test]
fn serve_matches_cli_output_on_a_gene_network() {
    run_matrix("bio_unt", GeneNetworkKind::Gse5140Unt.network(180, 5));
}

#[test]
fn serve_matches_cli_output_on_a_structured_graph() {
    run_matrix(
        "grid11x6",
        maximal_chordal::generators::structured::grid(11, 6),
    );
}
