//! Seeded input generation. The program under test only ever sees the
//! generated graphs (mapped binary CSR files or heap graphs), never the
//! seed.

use chordal_generators::{GeneNetworkKind, RmatKind, RmatParams};
use chordal_graph::storage::{load_graph, write_binary_file, FileFormat, LoadedGraph};
use chordal_graph::{CsrGraph, GraphRef};
use std::path::{Path, PathBuf};

/// Input sizes. `FULL` is the benchmark; `TINY` exists for the self-test.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Scale of the three R-MAT graphs of `rmat16-*` (2^scale vertices).
    pub rmat_scale: u32,
    /// Genes per synthetic gene-correlation network of `gene-batch`.
    pub genes: usize,
    /// Seeds per gene-network kind (the batch holds four kinds × this).
    pub gene_seeds: u64,
    /// Scale and count of the RMAT-G graphs that ride along in the batch.
    pub batch_rmat_scale: u32,
    pub batch_rmat_graphs: u64,
    /// Scale and count of the RMAT-G files `serve-mixed` serves.
    pub serve_scale: u32,
    pub serve_files: u64,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        rmat_scale: 16,
        genes: 3000,
        gene_seeds: 8,
        batch_rmat_scale: 14,
        batch_rmat_graphs: 4,
        serve_scale: 13,
        serve_files: 6,
    };
    pub const TINY: Sizes = Sizes {
        rmat_scale: 10,
        genes: 300,
        gene_seeds: 1,
        batch_rmat_scale: 9,
        batch_rmat_graphs: 1,
        serve_scale: 8,
        serve_files: 3,
    };
}

/// SplitMix64 step: an independent stream per (seed, stream) pair.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(stream.wrapping_add(1).wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One named input graph in the representation its workload uses.
pub struct Input {
    pub name: String,
    pub graph: LoadedGraph,
}

impl Input {
    pub fn view(&self) -> GraphRef<'_> {
        self.graph.as_graph_ref()
    }

    /// Bytes the input occupies: the mapped file, or the heap CSR arrays.
    pub fn bytes(&self) -> usize {
        match &self.graph {
            LoadedGraph::Mapped(m) => m.header().file_len(),
            LoadedGraph::Heap(g) => {
                let layout = g.memory_breakdown();
                layout.offsets_bytes + layout.neighbors_bytes + layout.flags_bytes
            }
        }
    }
}

/// The three paper R-MAT families at `scale`, in ER, G, B order.
pub fn rmat_suite(scale: u32, seed: u64) -> Vec<(String, CsrGraph)> {
    RmatKind::all()
        .into_iter()
        .enumerate()
        .map(|(i, kind)| {
            let graph = RmatParams::preset(kind, scale, derive_seed(seed, i as u64)).generate();
            (kind.name().to_lowercase(), graph)
        })
        .collect()
}

/// The gene batch: every gene-network kind at `sizes.gene_seeds` seeds,
/// then the RMAT-G graphs above the batch pivot.
pub fn gene_batch(sizes: &Sizes, seed: u64) -> Vec<(String, CsrGraph)> {
    let mut graphs = Vec::new();
    for s in 0..sizes.gene_seeds {
        for kind in GeneNetworkKind::all() {
            let graph = kind.network(sizes.genes, derive_seed(seed, 100 + s));
            graphs.push((format!("{}#{s}", kind.name()), graph));
        }
    }
    for s in 0..sizes.batch_rmat_graphs {
        let params = RmatParams::preset(
            RmatKind::G,
            sizes.batch_rmat_scale,
            derive_seed(seed, 200 + s),
        );
        graphs.push((
            format!("rmat-g{}#{s}", sizes.batch_rmat_scale),
            params.generate(),
        ));
    }
    graphs
}

/// The RMAT-G graphs `serve-mixed` serves.
pub fn serve_set(sizes: &Sizes, seed: u64) -> Vec<(String, CsrGraph)> {
    (0..sizes.serve_files)
        .map(|s| {
            let params =
                RmatParams::preset(RmatKind::G, sizes.serve_scale, derive_seed(seed, 300 + s));
            (
                format!("rmat-g{}#{s}", sizes.serve_scale),
                params.generate(),
            )
        })
        .collect()
}

/// Heap inputs.
pub fn on_heap(graphs: Vec<(String, CsrGraph)>) -> Vec<Input> {
    graphs
        .into_iter()
        .map(|(name, graph)| Input {
            name,
            graph: LoadedGraph::Heap(graph),
        })
        .collect()
}

/// Writes every graph as binary CSR under `dir` and returns the file paths.
pub fn write_files<'a>(
    dir: &Path,
    graphs: impl IntoIterator<Item = (&'a str, GraphRef<'a>)>,
) -> Result<Vec<PathBuf>, String> {
    graphs
        .into_iter()
        .enumerate()
        .map(|(i, (name, graph))| {
            let path = dir.join(format!("{i:03}.bin"));
            write_binary_file(graph, &path).map_err(|e| format!("writing {name}: {e}"))?;
            Ok(path)
        })
        .collect()
}

/// Mapped inputs: writes each graph as binary CSR, drops the heap copy and
/// opens the file through `load_graph` (mmap).
pub fn mapped(
    dir: &Path,
    graphs: Vec<(String, CsrGraph)>,
) -> Result<(Vec<Input>, Vec<PathBuf>), String> {
    let paths = write_files(
        dir,
        graphs.iter().map(|(n, g)| (n.as_str(), GraphRef::from(g))),
    )?;
    let names: Vec<String> = graphs.into_iter().map(|(name, _)| name).collect();
    let inputs = names
        .into_iter()
        .zip(&paths)
        .map(|(name, path)| {
            let graph = load_graph(path, Some(FileFormat::Binary))
                .map_err(|e| format!("mapping {name}: {e}"))?;
            Ok(Input { name, graph })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok((inputs, paths))
}

/// A directory for one run's files inside the benchmark's own output
/// directory, removed when dropped.
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    pub fn create(tag: &str) -> Result<ScratchDir, String> {
        let path = out_dir().join(format!("tmp-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
        Ok(ScratchDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Where reports and run files go: `out/` beside the benchmark's manifest.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}
