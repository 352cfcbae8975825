//! Implementation of the `fesia` command-line tool (library-shaped so the
//! command logic is unit-testable without spawning processes).

use fesia_core::{FesiaParams, KernelTable, LaneWidth, SegmentedSet};
use std::fmt;
use std::io::Write;
use std::path::Path;

/// Usage text printed on argument errors.
pub const USAGE: &str = "\
usage:
  fesia build INPUT.txt OUTPUT.fsia [--bits-per-element F] [--segment 8|16]
  fesia info SET.fsia [--json]
  fesia count A.fsia B.fsia [--method fesia|auto|hash|scalar|shuffling|galloping]
                            [--threads N]
  fesia stats A.fsia B.fsia [--method fesia|auto|hash|scalar|shuffling|galloping]
                            [--threads N] [--json]
  fesia stats A.fsia B.fsia C.fsia [...] [--json]
  fesia intersect A.fsia B.fsia
  fesia algebra and|or|andnot|xor A.fsia B.fsia
  fesia kway SET.fsia SET.fsia [SET.fsia ...]
  fesia simjoin SETS.txt --overlap T | --jaccard J [--threads N]
  fesia serve [--tcp ADDR] [--shards N] [--script FILE] [--max-sets N]
              (requires building with --features serve)

Boolean queries: `algebra` materializes A AND B (intersection), A OR B
(union), A ANDNOT B (difference), or A XOR B (symmetric difference),
one value per line, sorted ascending.

Similarity join: `simjoin` reads one set per line (whitespace-separated
u32 values) and prints every pair of line indices whose sets meet the
threshold (overlap |A∩B| >= T, or Jaccard >= J), one `i j` pair per
line, followed by a '#'-prefixed cascade-statistics line.

Text inputs: one u32 per line; '#' comments and blank lines ignored.

Serving: `serve` runs the concurrently-updatable serving layer behind
a line protocol (ADD/DEL/CARD/COUNT/AND/OR/BOOL, QUIT to close) — over
stdin by default, a TCP listener with --tcp HOST:PORT, or a scripted
command file with --script. Shard count defaults to FESIA_SERVE_SHARDS
or the executor's lane count.";

/// Errors surfaced to the binary's `main`.
#[derive(Debug)]
pub enum CliError {
    /// Bad arguments; the binary prints [`USAGE`] and exits 2.
    Usage(String),
    /// I/O failure.
    Io(std::io::Error),
    /// Input file contained something other than a u32.
    Parse { line: usize, content: String },
    /// The set could not be encoded.
    Build(fesia_core::BuildError),
    /// A `.fsia` file failed to decode.
    Decode(fesia_core::DecodeError),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "{m}"),
            CliError::Io(e) => write!(f, "io: {e}"),
            CliError::Parse { line, content } => {
                write!(f, "line {line}: `{content}` is not a u32")
            }
            CliError::Build(e) => write!(f, "build: {e}"),
            CliError::Decode(e) => write!(f, "decode: {e}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

/// Parse a text file of one u32 per line (comments/blank lines skipped).
pub fn parse_values(text: &str) -> Result<Vec<u32>, CliError> {
    let mut out = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let v: u32 = line.parse().map_err(|_| CliError::Parse {
            line: i + 1,
            content: line.to_string(),
        })?;
        out.push(v);
    }
    Ok(out)
}

fn load_set(path: &str) -> Result<SegmentedSet, CliError> {
    // v3 files decode zero-copy straight out of the mapping (no per-set
    // heap allocation); anything the mapped decoder refuses — legacy
    // versions, big-endian hosts, misaligned buffers — falls back to the
    // owned, fully validating path.
    if let Ok(file) = fesia_core::MappedFile::open(Path::new(path)) {
        let file = std::sync::Arc::new(file);
        if let Ok((set, _)) = SegmentedSet::deserialize_mapped(&file, 0) {
            return Ok(set);
        }
    }
    let bytes = std::fs::read(Path::new(path))?;
    let (set, _) = SegmentedSet::deserialize(&bytes).map_err(CliError::Decode)?;
    Ok(set)
}

fn cmd_build(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let (mut input, mut output) = (None, None);
    let mut params = FesiaParams::auto();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--bits-per-element" => {
                let v = it
                    .next()
                    .and_then(|s| s.parse::<f64>().ok())
                    .filter(|&v| v > 0.0)
                    .ok_or_else(|| {
                        CliError::Usage("--bits-per-element needs a positive number".into())
                    })?;
                params = params.with_bits_per_element(v);
            }
            "--segment" => {
                let lane = match it.next().map(String::as_str) {
                    Some("8") => LaneWidth::U8,
                    Some("16") => LaneWidth::U16,
                    _ => return Err(CliError::Usage("--segment needs 8 or 16".into())),
                };
                params = params.with_segment(lane);
            }
            other if input.is_none() => input = Some(other.to_string()),
            other if output.is_none() => output = Some(other.to_string()),
            other => return Err(CliError::Usage(format!("unexpected argument `{other}`"))),
        }
    }
    let input = input.ok_or_else(|| CliError::Usage("build needs an input file".into()))?;
    let output = output.ok_or_else(|| CliError::Usage("build needs an output file".into()))?;
    let text = std::fs::read_to_string(&input)?;
    let values = parse_values(&text)?;
    let set = SegmentedSet::from_unsorted(values, &params).map_err(CliError::Build)?;
    std::fs::write(&output, set.serialize())?;
    writeln!(
        out,
        "built {}: {} elements, {} bitmap bits, {} segments, {} bytes on disk",
        output,
        set.len(),
        set.bitmap_bits(),
        set.num_segments(),
        set.serialized_len()
    )?;
    Ok(())
}

/// The `info --json` document: every scalar the text report prints, plus
/// the per-container range/cardinality histogram, machine-readable for
/// corpus audits and the smoke gates.
fn info_json(path: &str, set: &SegmentedSet, out: &mut dyn Write) -> Result<(), CliError> {
    let container = match (set.container(), set.container_stats()) {
        (Some(tier), Some(c)) => format!(
            "{{\"ranges\": {{\"array\": {}, \"bitmap\": {}, \"run\": {}}}, \
             \"cardinality\": {{\"array\": {}, \"bitmap\": {}, \"run\": {}}}, \
             \"dense_fraction\": {:.4}, \"memory_bytes\": {}}}",
            c.ranges_array,
            c.ranges_bitmap,
            c.ranges_run,
            c.card_array,
            c.card_bitmap,
            c.card_run,
            c.dense_fraction(),
            tier.memory_bytes()
        ),
        _ => "null".to_string(),
    };
    let planner = fesia_core::IntersectPlanner::current();
    let sum = fesia_core::SetSummary::of(set);
    writeln!(
        out,
        "{{\n  \"file\": \"{path}\",\n  \"elements\": {},\n  \"bitmap_bits\": {},\n  \
         \"segment_bits\": {},\n  \"segments\": {},\n  \"memory_bytes\": {},\n  \
         \"serialized_bytes\": {},\n  \"container\": {container},\n  \
         \"summary_blocks\": {},\n  \"summary_density\": {:.4},\n  \
         \"planner\": {{\"plan_vs_self\": \"{}\"}}\n}}",
        set.len(),
        set.bitmap_bits(),
        set.lane().bits(),
        set.num_segments(),
        set.memory_bytes(),
        set.serialized_len(),
        set.summary_blocks(),
        set.summary_density(),
        planner.plan_pair(&sum, &sum).name(),
    )?;
    Ok(())
}

fn cmd_info(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let mut json = false;
    let mut path: Option<String> = None;
    for arg in args {
        match arg.as_str() {
            "--json" => json = true,
            other if path.is_none() => path = Some(other.to_string()),
            other => return Err(CliError::Usage(format!("unexpected argument `{other}`"))),
        }
    }
    let path = &path.ok_or_else(|| CliError::Usage("info needs exactly one .fsia file".into()))?;
    let set = load_set(path)?;
    if json {
        return info_json(path, &set, out);
    }
    writeln!(out, "file:            {path}")?;
    writeln!(out, "elements:        {}", set.len())?;
    writeln!(out, "bitmap bits (m): {}", set.bitmap_bits())?;
    writeln!(out, "segment bits:    {}", set.lane().bits())?;
    writeln!(out, "segments:        {}", set.num_segments())?;
    writeln!(out, "memory bytes:    {}", set.memory_bytes())?;
    writeln!(out, "serialized:      {} bytes", set.serialized_len())?;
    match set.container_stats() {
        Some(c) => writeln!(
            out,
            "container tier:  {} ranges ({} array / {} bitmap / {} run), {:.1}% dense",
            c.ranges(),
            c.ranges_array,
            c.ranges_bitmap,
            c.ranges_run,
            c.dense_fraction() * 100.0
        )?,
        None => writeln!(out, "container tier:  none")?,
    }
    let populated = (0..set.num_segments())
        .filter(|&i| set.seg_size(i) > 0)
        .count();
    let max_pop = (0..set.num_segments())
        .map(|i| set.seg_size(i))
        .max()
        .unwrap_or(0);
    writeln!(
        out,
        "populated segs:  {populated} (max population {max_pop})"
    )?;
    writeln!(
        out,
        "summary blocks:  {} ({:.1}% expected populated)",
        set.summary_blocks(),
        set.summary_density() * 100.0
    )?;
    let planner = fesia_core::IntersectPlanner::current();
    let sum = fesia_core::SetSummary::of(&set);
    writeln!(
        out,
        "planner:         plan-vs-self={}",
        planner.plan_pair(&sum, &sum).name(),
    )?;
    Ok(())
}

/// Parsed `count`/`stats` argument shape: set paths plus knobs.
struct CountArgs {
    paths: Vec<String>,
    method: String,
    threads: usize,
    json: bool,
}

/// Parse `count` (exactly two sets) or `stats` (`allow_json`; two or
/// more sets, where more than two run the planned k-way count).
fn parse_count_args(cmd: &str, args: &[String], allow_json: bool) -> Result<CountArgs, CliError> {
    let mut paths = Vec::new();
    let mut method = "fesia".to_string();
    let mut threads = 1usize;
    let mut json = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--method" => {
                method = it
                    .next()
                    .ok_or_else(|| CliError::Usage("--method needs a value".into()))?
                    .clone();
            }
            "--threads" => {
                threads = it
                    .next()
                    .and_then(|s| s.parse::<usize>().ok())
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| CliError::Usage("--threads needs a positive integer".into()))?;
            }
            "--json" if allow_json => json = true,
            other => paths.push(other.to_string()),
        }
    }
    if paths.len() < 2 || (paths.len() > 2 && !allow_json) {
        let want = if allow_json { "at least" } else { "exactly" };
        return Err(CliError::Usage(format!(
            "{cmd} needs {want} two .fsia files"
        )));
    }
    if threads > 1 && method != "fesia" {
        return Err(CliError::Usage(
            "--threads only applies to --method fesia".into(),
        ));
    }
    if paths.len() > 2 && (method != "fesia" || threads > 1) {
        return Err(CliError::Usage(format!(
            "{cmd} of more than two sets runs the planned k-way count (no --method or --threads)"
        )));
    }
    Ok(CountArgs {
        paths,
        method,
        threads,
        json,
    })
}

/// The counting core shared by `count` and `stats`.
fn count_by_method(
    a: &SegmentedSet,
    b: &SegmentedSet,
    method: &str,
    threads: usize,
) -> Result<usize, CliError> {
    let count = match method {
        "fesia" if threads > 1 => fesia_core::par_intersect_count(a, b, threads),
        "fesia" => fesia_core::intersect_count(a, b),
        "auto" => fesia_core::auto_count(a, b),
        "hash" => {
            let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
            fesia_core::hash_probe_count(small.reordered_elements(), large)
        }
        "scalar" | "shuffling" | "galloping" => {
            // Slice methods need sorted inputs; reconstruct them.
            let mut av = a.reordered_elements().to_vec();
            let mut bv = b.reordered_elements().to_vec();
            av.sort_unstable();
            bv.sort_unstable();
            let m = match method {
                "scalar" => fesia_baselines::Method::Scalar,
                "shuffling" => fesia_baselines::Method::Shuffling(fesia_simd::SimdLevel::detect()),
                _ => fesia_baselines::Method::ScalarGalloping,
            };
            m.count(&av, &bv)
        }
        other => {
            return Err(CliError::Usage(format!(
                "unknown method `{other}` (fesia|auto|hash|scalar|shuffling|galloping)"
            )))
        }
    };
    Ok(count)
}

fn cmd_count(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let p = parse_count_args("count", args, false)?;
    let a = load_set(&p.paths[0])?;
    let b = load_set(&p.paths[1])?;
    let count = count_by_method(&a, &b, &p.method, p.threads)?;
    writeln!(out, "{count}")?;
    Ok(())
}

/// `fesia stats`: run a count workload and report the runtime-metrics
/// delta it produced (the always-on `fesia-obs` counters and histograms).
/// Two sets run the pair count; more run the planned k-way count, whose
/// strategy counters are always printed.
fn cmd_stats(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let p = parse_count_args("stats", args, true)?;
    let sets: Vec<SegmentedSet> = p
        .paths
        .iter()
        .map(|f| load_set(f))
        .collect::<Result<_, _>>()?;
    let sums: Vec<fesia_core::SetSummary> = sets.iter().map(fesia_core::SetSummary::of).collect();
    let planner = fesia_core::IntersectPlanner::current();
    let kway = sets.len() > 2;
    let plan = if kway {
        planner.plan_kway(&sums).strategy.name()
    } else {
        planner.plan_pair(&sums[0], &sums[1]).name()
    };
    let before = fesia_obs::metrics().snapshot();
    let count = if kway {
        let refs: Vec<&SegmentedSet> = sets.iter().collect();
        fesia_core::kway_count_with(&refs, &KernelTable::auto())
    } else {
        count_by_method(&sets[0], &sets[1], &p.method, p.threads)?
    };
    let delta = fesia_obs::metrics().snapshot().delta(&before);
    if p.json {
        writeln!(
            out,
            "{{\"count\": {count}, \"plan\": \"{plan}\", \"metrics\": {}}}",
            delta.to_json()
        )?;
    } else {
        writeln!(out, "count: {count}")?;
        writeln!(out, "plan: {plan}")?;
        if kway {
            writeln!(
                out,
                "kway strategies: probe={} container={} scan={}",
                delta.kway_probe, delta.kway_container, delta.kway_scan
            )?;
        }
        write!(out, "{}", delta.report())?;
    }
    Ok(())
}

fn cmd_intersect(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let [pa, pb] = args else {
        return Err(CliError::Usage(
            "intersect needs exactly two .fsia files".into(),
        ));
    };
    let a = load_set(pa)?;
    let b = load_set(pb)?;
    // One value per line can be millions of lines; without buffering
    // every `writeln!` is a separate write syscall on a raw stdout.
    let mut out = std::io::BufWriter::new(out);
    for v in fesia_core::intersect(&a, &b) {
        writeln!(out, "{v}")?;
    }
    out.flush()?;
    Ok(())
}

fn cmd_algebra(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let [opname, pa, pb] = args else {
        return Err(CliError::Usage(
            "algebra needs an operator (and|or|andnot|xor) and two .fsia files".into(),
        ));
    };
    let op = match opname.as_str() {
        "and" => fesia_core::SetOp::Intersect,
        "or" => fesia_core::SetOp::Union,
        "andnot" => fesia_core::SetOp::Difference,
        "xor" => fesia_core::SetOp::Xor,
        other => {
            return Err(CliError::Usage(format!(
                "unknown operator `{other}` (and|or|andnot|xor)"
            )))
        }
    };
    let a = load_set(pa)?;
    let b = load_set(pb)?;
    let mut out = std::io::BufWriter::new(out);
    for v in fesia_core::set_op(&a, &b, op) {
        writeln!(out, "{v}")?;
    }
    out.flush()?;
    Ok(())
}

fn cmd_kway(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    if args.len() < 2 {
        return Err(CliError::Usage(
            "kway needs at least two .fsia files".into(),
        ));
    }
    let sets: Vec<SegmentedSet> = args.iter().map(|p| load_set(p)).collect::<Result<_, _>>()?;
    let refs: Vec<&SegmentedSet> = sets.iter().collect();
    let table = KernelTable::auto();
    writeln!(out, "{}", fesia_core::kway_count_with(&refs, &table))?;
    Ok(())
}

/// Parse a multiset text file: one set per line, whitespace-separated
/// u32 values ('#' comments and blank lines skipped). Each line is
/// sorted and deduplicated, so unordered input is accepted.
pub fn parse_set_lines(text: &str) -> Result<Vec<Vec<u32>>, CliError> {
    let mut out = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut set = Vec::new();
        for tok in line.split_whitespace() {
            let v: u32 = tok.parse().map_err(|_| CliError::Parse {
                line: i + 1,
                content: tok.to_string(),
            })?;
            set.push(v);
        }
        set.sort_unstable();
        set.dedup();
        out.push(set);
    }
    Ok(out)
}

fn cmd_simjoin(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let mut path: Option<String> = None;
    let mut threshold: Option<fesia_core::Threshold> = None;
    let mut threads = 0usize;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--overlap" => {
                let t: usize = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| CliError::Usage("--overlap needs an integer".into()))?;
                threshold = Some(fesia_core::Threshold::Overlap(t));
            }
            "--jaccard" => {
                let j: f64 = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| CliError::Usage("--jaccard needs a number".into()))?;
                if !(0.0..=1.0).contains(&j) {
                    return Err(CliError::Usage("--jaccard must be in [0, 1]".into()));
                }
                threshold = Some(fesia_core::Threshold::Jaccard(j));
            }
            "--threads" => {
                threads = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| CliError::Usage("--threads needs a number".into()))?;
            }
            other if path.is_none() => path = Some(other.to_string()),
            other => return Err(CliError::Usage(format!("unexpected argument `{other}`"))),
        }
    }
    let path = path.ok_or_else(|| CliError::Usage("simjoin needs a SETS.txt file".into()))?;
    let threshold = threshold
        .ok_or_else(|| CliError::Usage("simjoin needs --overlap T or --jaccard J".into()))?;
    if threads == 0 {
        threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    }
    let lists = parse_set_lines(&std::fs::read_to_string(Path::new(&path))?)?;
    let res = fesia_core::self_join(&lists, threshold, threads);
    // The qualifying-pair list of a large corpus can be huge; buffer it
    // like the other line-per-value emitters.
    let mut out = std::io::BufWriter::new(out);
    for &(a, b) in &res.pairs {
        writeln!(out, "{a} {b}")?;
    }
    writeln!(
        out,
        "# sets={} candidates={} bitmap_rejected={} early_exited={} verified={} pairs={}",
        lists.len(),
        res.stats.candidates,
        res.stats.bitmap_rejected,
        res.stats.early_exited,
        res.stats.verified,
        res.pairs.len()
    )?;
    out.flush()?;
    Ok(())
}

/// `fesia serve`: the line-protocol serving layer over stdin, a TCP
/// listener, or a scripted command file.
#[cfg(feature = "serve")]
fn cmd_serve(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    use fesia_serve::{serve_lines, serve_tcp, ServeConfig, Server};

    let mut tcp: Option<String> = None;
    let mut script: Option<String> = None;
    let mut max_sets: Option<u32> = None;
    let mut config = ServeConfig::from_env();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = |i: &mut usize| -> Result<String, CliError> {
            *i += 1;
            args.get(*i)
                .cloned()
                .ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))
        };
        match flag {
            "--tcp" => tcp = Some(value(&mut i)?),
            "--script" => script = Some(value(&mut i)?),
            "--shards" => {
                let v = value(&mut i)?;
                let n: usize = v
                    .parse()
                    .map_err(|_| CliError::Usage(format!("bad --shards `{v}`")))?;
                config = config.with_shards(n);
            }
            "--max-sets" => {
                let v = value(&mut i)?;
                max_sets = Some(
                    v.parse()
                        .map_err(|_| CliError::Usage(format!("bad --max-sets `{v}`")))?,
                );
            }
            other => return Err(CliError::Usage(format!("unknown flag `{other}`"))),
        }
        i += 1;
    }

    let mut server = Server::new(config);
    if let Some(n) = max_sets {
        server = server.with_max_sets(n);
    }
    if let Some(addr) = tcp {
        serve_tcp(std::sync::Arc::new(server), &addr).map_err(CliError::Io)
    } else if let Some(path) = script {
        let file = std::fs::File::open(path)?;
        serve_lines(&server, std::io::BufReader::new(file), out).map_err(CliError::Io)
    } else {
        let stdin = std::io::stdin();
        serve_lines(&server, stdin.lock(), out).map_err(CliError::Io)
    }
}

/// Dispatch a full argument vector (everything after the binary name).
pub fn run(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    match args.first().map(String::as_str) {
        Some("build") => cmd_build(&args[1..], out),
        Some("info") => cmd_info(&args[1..], out),
        Some("count") => cmd_count(&args[1..], out),
        Some("stats") => cmd_stats(&args[1..], out),
        Some("intersect") => cmd_intersect(&args[1..], out),
        Some("algebra") => cmd_algebra(&args[1..], out),
        Some("kway") => cmd_kway(&args[1..], out),
        Some("simjoin") => cmd_simjoin(&args[1..], out),
        #[cfg(feature = "serve")]
        Some("serve") => cmd_serve(&args[1..], out),
        #[cfg(not(feature = "serve"))]
        Some("serve") => Err(CliError::Usage(
            "this binary was built without the `serve` feature (rebuild with --features serve)"
                .into(),
        )),
        Some("--help") | Some("-h") => {
            writeln!(out, "{USAGE}")?;
            Ok(())
        }
        Some(other) => Err(CliError::Usage(format!("unknown command `{other}`"))),
        None => Err(CliError::Usage("no command given".into())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    /// A fresh directory per test: tests run in parallel threads and
    /// each removes its directory when done, so they must never share one.
    fn tmpdir(test: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("fesia-cli-test-{}-{test}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn parse_values_handles_comments_and_blanks() {
        let text = "# header\n1\n\n42\n  7  \n# trailing\n";
        assert_eq!(parse_values(text).unwrap(), vec![1, 42, 7]);
        let err = parse_values("1\nnope\n").unwrap_err();
        assert!(matches!(err, CliError::Parse { line: 2, .. }));
    }

    #[test]
    fn end_to_end_build_info_count_intersect() {
        let dir = tmpdir("end_to_end_build_info_count_intersect");
        let ta = dir.join("a.txt");
        let tb = dir.join("b.txt");
        std::fs::write(&ta, "1\n4\n15\n21\n32\n34\n").unwrap();
        std::fs::write(&tb, "2\n6\n12\n16\n21\n23\n").unwrap();
        let fa = dir.join("a.fsia").to_string_lossy().to_string();
        let fb = dir.join("b.fsia").to_string_lossy().to_string();

        let mut out = Vec::new();
        run(&s(&["build", ta.to_str().unwrap(), &fa]), &mut out).unwrap();
        run(&s(&["build", tb.to_str().unwrap(), &fb]), &mut out).unwrap();
        assert!(String::from_utf8_lossy(&out).contains("6 elements"));

        let mut out = Vec::new();
        run(&s(&["info", &fa]), &mut out).unwrap();
        let info = String::from_utf8_lossy(&out);
        assert!(info.contains("elements:        6"), "{info}");
        assert!(info.contains("summary blocks:  1"), "{info}");
        assert!(info.contains("serialized:      "), "{info}");
        // A 512-bit bitmap is far below the sparse-probe floor.
        assert!(info.contains("plan-vs-self=plain"), "{info}");

        for method in ["fesia", "auto", "hash", "scalar", "shuffling", "galloping"] {
            let mut out = Vec::new();
            run(&s(&["count", &fa, &fb, "--method", method]), &mut out).unwrap();
            assert_eq!(String::from_utf8_lossy(&out).trim(), "1", "method={method}");
        }

        for t in ["1", "4"] {
            let mut out = Vec::new();
            run(&s(&["count", &fa, &fb, "--threads", t]), &mut out).unwrap();
            assert_eq!(String::from_utf8_lossy(&out).trim(), "1", "threads={t}");
        }
        let mut out = Vec::new();
        assert!(matches!(
            run(&s(&["count", &fa, &fb, "--threads", "0"]), &mut out),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(
                &s(&["count", &fa, &fb, "--method", "scalar", "--threads", "2"]),
                &mut out
            ),
            Err(CliError::Usage(_))
        ));

        let mut out = Vec::new();
        run(&s(&["intersect", &fa, &fb]), &mut out).unwrap();
        assert_eq!(String::from_utf8_lossy(&out).trim(), "21");

        // Boolean queries: each operator against the merge oracles.
        let lines = |out: &[u8]| -> Vec<u32> {
            String::from_utf8_lossy(out)
                .lines()
                .map(|l| l.parse().unwrap())
                .collect()
        };
        let va = vec![1u32, 4, 15, 21, 32, 34];
        let vb = vec![2u32, 6, 12, 16, 21, 23];
        for (opname, want) in [
            ("and", fesia_baselines::merge::intersect(&va, &vb)),
            ("or", fesia_baselines::merge::union(&va, &vb)),
            ("andnot", fesia_baselines::merge::difference(&va, &vb)),
            ("xor", fesia_baselines::merge::xor(&va, &vb)),
        ] {
            let mut out = Vec::new();
            run(&s(&["algebra", opname, &fa, &fb]), &mut out).unwrap();
            assert_eq!(lines(&out), want, "op={opname}");
        }
        let mut out = Vec::new();
        assert!(matches!(
            run(&s(&["algebra", "nand", &fa, &fb]), &mut out),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&s(&["algebra", "and", &fa]), &mut out),
            Err(CliError::Usage(_))
        ));

        let mut out = Vec::new();
        run(&s(&["kway", &fa, &fb, &fa]), &mut out).unwrap();
        assert_eq!(String::from_utf8_lossy(&out).trim(), "1");

        // stats: same count, plus a metrics-delta report.
        let mut out = Vec::new();
        run(&s(&["stats", &fa, &fb, "--method", "auto"]), &mut out).unwrap();
        let text = String::from_utf8_lossy(&out);
        assert!(text.contains("count: 1"), "{text}");
        // Equal-sized inputs take the merge strategy, and the delta
        // isolates exactly this one adaptive intersection.
        assert!(text.contains("strategy_merge"), "{text}");

        // stats over three sets: the planned k-way count and its
        // strategy counters.
        let mut out = Vec::new();
        run(&s(&["stats", &fa, &fb, &fa]), &mut out).unwrap();
        let text = String::from_utf8_lossy(&out);
        assert!(text.contains("count: 1"), "{text}");
        assert!(
            text.contains("kway strategies: probe=0 container=0 scan=1"),
            "{text}"
        );
        let mut out = Vec::new();
        assert!(matches!(
            run(&s(&["stats", &fa, &fb, &fa, "--method", "hash"]), &mut out),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&s(&["count", &fa, &fb, &fa]), &mut out),
            Err(CliError::Usage(_))
        ));

        let mut out = Vec::new();
        run(&s(&["stats", &fa, &fb, "--json"]), &mut out).unwrap();
        let json = String::from_utf8_lossy(&out);
        assert!(
            json.trim().starts_with('{') && json.trim().ends_with('}'),
            "{json}"
        );
        assert!(json.contains("\"count\": 1"), "{json}");
        assert!(json.contains("\"metrics\""), "{json}");
        assert!(json.contains("\"simjoin_bitmap_rejected\": 0"), "{json}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn simjoin_end_to_end() {
        let dir = tmpdir("simjoin_end_to_end");
        let f = dir.join("sets.txt");
        // Lines 0 and 2 share {1,2,3}; line 1 is disjoint; line 3 shares
        // {2,3} with 0 and 2. Unsorted input on line 2 must be accepted.
        std::fs::write(&f, "# corpus\n1 2 3 4\n10 11 12 13\n5 3 1 2\n\n2 3 20 21\n").unwrap();
        let p = f.to_str().unwrap();

        let mut out = Vec::new();
        run(&s(&["simjoin", p, "--overlap", "3"]), &mut out).unwrap();
        let text = String::from_utf8_lossy(&out);
        let pairs: Vec<&str> = text.lines().filter(|l| !l.starts_with('#')).collect();
        assert_eq!(pairs, vec!["0 2"], "{text}");
        let stats = text.lines().find(|l| l.starts_with('#')).unwrap();
        assert!(
            stats.contains("sets=4") && stats.contains("pairs=1"),
            "{stats}"
        );
        // The XOR filter rejects the two candidates sharing 2 of 4
        // tokens before any count.
        assert!(
            stats.contains("candidates=3 bitmap_rejected=2 early_exited=0 verified=1"),
            "{stats}"
        );

        let mut out = Vec::new();
        run(
            &s(&["simjoin", p, "--overlap", "2", "--threads", "2"]),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8_lossy(&out);
        let pairs: Vec<&str> = text.lines().filter(|l| !l.starts_with('#')).collect();
        assert_eq!(pairs, vec!["0 2", "0 3", "2 3"], "{text}");

        // Jaccard(0.5): pair (0,2) has |∩|=3, |∪|=5 -> 0.6 qualifies.
        let mut out = Vec::new();
        run(&s(&["simjoin", p, "--jaccard", "0.5"]), &mut out).unwrap();
        let text = String::from_utf8_lossy(&out);
        let pairs: Vec<&str> = text.lines().filter(|l| !l.starts_with('#')).collect();
        assert_eq!(pairs, vec!["0 2"], "{text}");

        // Argument errors: missing threshold, bad jaccard range.
        let mut out = Vec::new();
        assert!(matches!(
            run(&s(&["simjoin", p]), &mut out),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&s(&["simjoin", p, "--jaccard", "1.5"]), &mut out),
            Err(CliError::Usage(_))
        ));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parse_set_lines_formats() {
        let text = "# c\n3 1 2\n\n7\n";
        let sets = parse_set_lines(text).unwrap();
        assert_eq!(sets, vec![vec![1, 2, 3], vec![7]]);
        let err = parse_set_lines("1 2\n3 x\n").unwrap_err();
        assert!(matches!(err, CliError::Parse { line: 2, .. }));
    }

    #[test]
    fn build_flags_are_respected() {
        let dir = tmpdir("build_flags_are_respected");
        let t = dir.join("v.txt");
        std::fs::write(
            &t,
            (0..1000)
                .map(|i| (i * 3).to_string())
                .collect::<Vec<_>>()
                .join("\n"),
        )
        .unwrap();
        let f = dir.join("v16.fsia").to_string_lossy().to_string();
        let mut out = Vec::new();
        run(
            &s(&[
                "build",
                t.to_str().unwrap(),
                &f,
                "--segment",
                "16",
                "--bits-per-element",
                "4",
            ]),
            &mut out,
        )
        .unwrap();
        let set = load_set(&f).unwrap();
        assert_eq!(set.lane().bits(), 16);
        assert_eq!(set.bitmap_bits(), 4096); // 1000 * 4 -> 4096
        let mut out = Vec::new();
        run(&s(&["info", &f]), &mut out).unwrap();
        let info = String::from_utf8_lossy(&out);
        assert!(info.contains("segment bits:    16"), "{info}");
        assert!(info.contains("bitmap bits (m): 4096"), "{info}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_usage_is_reported() {
        let mut out = Vec::new();
        assert!(matches!(run(&s(&[]), &mut out), Err(CliError::Usage(_))));
        assert!(matches!(
            run(&s(&["frobnicate"]), &mut out),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&s(&["info"]), &mut out),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&s(&["count", "only-one.fsia"]), &mut out),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn info_json_reports_tiers_and_histogram() {
        let dir = tmpdir("info_json_reports_tiers_and_histogram");
        // A run-heavy set past the container build floor: consecutive
        // values classify as one run range per 65536-value window.
        let t = dir.join("dense.txt");
        std::fs::write(
            &t,
            (0..5000u32)
                .map(|i| i.to_string())
                .collect::<Vec<_>>()
                .join("\n"),
        )
        .unwrap();
        let f = dir.join("dense.fsia").to_string_lossy().to_string();
        run(&s(&["build", t.to_str().unwrap(), &f]), &mut Vec::new()).unwrap();

        let mut out = Vec::new();
        run(&s(&["info", &f]), &mut out).unwrap();
        let info = String::from_utf8_lossy(&out);
        assert!(info.contains("container tier:  1 ranges"), "{info}");
        assert!(info.contains("1 run"), "{info}");
        assert!(info.contains("100.0% dense"), "{info}");

        let mut out = Vec::new();
        run(&s(&["info", &f, "--json"]), &mut out).unwrap();
        let json = String::from_utf8_lossy(&out);
        assert!(
            json.trim().starts_with('{') && json.trim().ends_with('}'),
            "{json}"
        );
        assert!(json.contains("\"elements\": 5000"), "{json}");
        assert!(json.contains("\"run\": 1"), "{json}");
        assert!(json.contains("\"dense_fraction\": 1.0000"), "{json}");
        assert!(json.contains("\"planner\""), "{json}");

        // A tiny set carries no container tier, and no removed packed
        // tier is reported at all.
        let t2 = dir.join("tiny.txt");
        std::fs::write(&t2, "1\n2\n3\n").unwrap();
        let f2 = dir.join("tiny.fsia").to_string_lossy().to_string();
        run(&s(&["build", t2.to_str().unwrap(), &f2]), &mut Vec::new()).unwrap();
        let mut out = Vec::new();
        run(&s(&["info", &f2, "--json"]), &mut out).unwrap();
        let json = String::from_utf8_lossy(&out);
        assert!(!json.contains("\"packed\""), "{json}");
        assert!(json.contains("\"container\": null"), "{json}");

        // Flag typos are usage errors.
        assert!(matches!(
            run(&s(&["info", &f, "--jsonx"]), &mut Vec::new()),
            Err(CliError::Usage(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn info_reports_the_planner_line() {
        let dir = tmpdir("info_reports_the_planner_line");
        let t = dir.join("p.txt");
        std::fs::write(&t, "3\n9\n27\n").unwrap();
        let f = dir.join("p.fsia").to_string_lossy().to_string();
        run(&s(&["build", t.to_str().unwrap(), &f]), &mut Vec::new()).unwrap();
        let mut out = Vec::new();
        run(&s(&["info", &f]), &mut out).unwrap();
        let info = String::from_utf8_lossy(&out);
        assert!(info.contains("planner:         plan-vs-self="), "{info}");
        assert!(!info.contains("mode="), "{info}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn decode_errors_surface() {
        let dir = tmpdir("decode_errors_surface");
        let bogus = dir.join("bogus.fsia");
        std::fs::write(&bogus, b"not a fesia file").unwrap();
        let mut out = Vec::new();
        let err = run(&s(&["info", bogus.to_str().unwrap()]), &mut out).unwrap_err();
        assert!(matches!(err, CliError::Decode(_)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[cfg(feature = "serve")]
    #[test]
    fn serve_runs_a_scripted_session() {
        let dir = tmpdir("serve_runs_a_scripted_session");
        let script = dir.join("session.txt");
        std::fs::write(
            &script,
            "ADD 0 5\nADD 0 9\nADD 1 9\nCOUNT 0 1\nAND 0 1\nBOGUS\nQUIT\n",
        )
        .unwrap();
        let mut out = Vec::new();
        run(
            &s(&[
                "serve",
                "--shards",
                "2",
                "--script",
                script.to_str().unwrap(),
            ]),
            &mut out,
        )
        .unwrap();
        let got = String::from_utf8(out).unwrap();
        assert_eq!(got, "OK\nOK\nOK\n1\n9\nERR unknown command `BOGUS`\n");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[cfg(feature = "serve")]
    #[test]
    fn serve_rejects_bad_flags() {
        assert!(matches!(
            run(&s(&["serve", "--shards", "x"]), &mut Vec::new()),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&s(&["serve", "--frob"]), &mut Vec::new()),
            Err(CliError::Usage(_))
        ));
    }

    #[cfg(not(feature = "serve"))]
    #[test]
    fn serve_without_the_feature_reports_usage() {
        let err = run(&s(&["serve"]), &mut Vec::new()).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
    }
}
