//! `BENCH_*.json` records: one ordered key/value JSON builder, the five
//! record schemas built with it, and one writer.
//!
//! Every record is written into one directory, `ABR_OUT_DIR` (default
//! `.`). The JSON is hand-rolled (no serializer dependency); each field
//! keeps its number format (`{}` or `{:.N}`), so a record re-renders byte
//! for byte apart from its wall-clock fields. Strings are written
//! verbatim: they are figure names and series/topology/fabric labels,
//! none of which holds a character JSON would need escaped.

use crate::figures::{best_nab, headline, peak_ab, BwPoint, FabricPoint, TenantPoint};
use abr_cluster::microbench::ScaleRunResult;
use abr_cluster::sweep::points_run;
use std::fmt::Display;
use std::path::PathBuf;
use std::time::Instant;

/// A JSON object whose fields render in insertion order. Each value is
/// rendered as it is added; [`Record::block`] and [`Record::list`] lay
/// theirs out for a field of the top-level document.
#[derive(Debug, Clone, Default)]
pub struct Record(Vec<(&'static str, String)>);

impl Record {
    fn field(mut self, key: &'static str, value: String) -> Self {
        self.0.push((key, value));
        self
    }

    /// `key` with `value` in its `Display` form (`{}`): integers, booleans,
    /// and floats written at their shortest exact precision.
    pub fn val(self, key: &'static str, value: impl Display) -> Self {
        self.field(key, value.to_string())
    }

    /// `key` with `value` to `places` decimals (`{:.N}`).
    pub fn fixed(self, key: &'static str, value: f64, places: usize) -> Self {
        self.field(key, format!("{value:.places$}"))
    }

    /// `key` with a quoted string.
    pub fn text(self, key: &'static str, value: &str) -> Self {
        self.field(key, format!("\"{value}\""))
    }

    /// `key` with an object on one line, or `null` for `None`.
    pub fn obj(self, key: &'static str, value: impl Into<Option<Record>>) -> Self {
        let value = value
            .into()
            .map_or_else(|| "null".to_string(), |r| r.inline());
        self.field(key, value)
    }

    /// `key` with an object written one field per line.
    pub fn block(self, key: &'static str, value: Record) -> Self {
        self.field(key, value.lines("    ", "  "))
    }

    /// `key` with a list of objects, one per line.
    pub fn list(self, key: &'static str, items: impl IntoIterator<Item = Record>) -> Self {
        let items: Vec<String> = items
            .into_iter()
            .map(|r| format!("\n    {}", r.inline()))
            .collect();
        self.field(key, format!("[{}\n  ]", items.join(",")))
    }

    /// The whole document: one field per line, newline-terminated.
    pub fn render(&self) -> String {
        self.lines("  ", "") + "\n"
    }

    fn inline(&self) -> String {
        format!("{{{}}}", self.fields("", ", "))
    }

    fn lines(&self, pad: &str, close: &str) -> String {
        format!("{{\n{}\n{close}}}", self.fields(pad, ",\n"))
    }

    fn fields(&self, pad: &str, sep: &str) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("{pad}\"{k}\": {v}"))
            .collect();
        fields.join(sep)
    }
}

/// Wall-clock record for one figure's sweep.
#[derive(Debug, Clone)]
pub struct FigureRecord {
    /// Figure name, e.g. `fig6`.
    pub name: &'static str,
    /// Simulation points the sweep evaluated.
    pub points: u64,
    /// Wall-clock time for the whole figure (ms).
    pub wall_ms: f64,
}

impl FigureRecord {
    fn record(&self) -> Record {
        Record::default()
            .text("name", self.name)
            .val("points", self.points)
            .fixed("wall_ms", self.wall_ms, 3)
    }
}

/// Run the figure `f`, returning its output plus a timing record
/// attributing the sweep points it executed.
pub fn timed_figure<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, FigureRecord) {
    let points_before = points_run();
    let t0 = Instant::now();
    let out = f();
    let record = FigureRecord {
        name,
        points: points_run() - points_before,
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
    };
    (out, record)
}

/// `BENCH_sweep.json`: worker and iteration counts plus one timing per
/// figure. The series are deterministic at any worker count (see
/// [`abr_cluster::sweep`]), so this is where the throughput effect of
/// `ABR_JOBS` shows.
pub fn sweep(jobs: usize, iters: u64, figures: &[FigureRecord]) -> String {
    Record::default()
        .text("schema", "abr-sweep-v1")
        .val("jobs", jobs)
        .val("iters", iters)
        .val(
            "total_points",
            figures.iter().map(|r| r.points).sum::<u64>(),
        )
        .fixed("total_wall_ms", figures.iter().map(|r| r.wall_ms).sum(), 3)
        .list("figures", figures.iter().map(FigureRecord::record))
        .render()
}

/// `BENCH_scale.json`: DES throughput of the scale workload at `run.ranks`
/// ranks, plus the scale figure's timing.
pub fn scale(scale_max: u32, run: &ScaleRunResult, figure: &FigureRecord) -> String {
    let modern = Record::default()
        .val("ranks", run.ranks)
        .val("events", run.events)
        .fixed("wall_secs", run.wall_secs, 3)
        .fixed("events_per_sec", run.events_per_sec, 0)
        .fixed("makespan_us", run.makespan_us, 1)
        .val("packets", run.packets_delivered);
    Record::default()
        .text("schema", "abr-scale-v2")
        .val("scale_max", scale_max)
        .block("throughput", Record::default().obj("modern", modern))
        .obj("figure", figure.record())
        .render()
}

/// `BENCH_fabric.json`: every (size, topology) point of the fabric figure
/// on the `fabric` label, with `best_nab` naming the topology with the
/// lowest blocking-mode CPU at the largest size.
pub fn fabric(fabric: &str, points: &[FabricPoint], figure: &FigureRecord) -> String {
    let best = best_nab(points).map(|b| {
        Record::default()
            .val("size", b.size)
            .text("topo", &b.topo)
            .fixed("nab_us", b.nab_us, 2)
    });
    let points = points.iter().map(|p| {
        Record::default()
            .val("size", p.size)
            .text("topo", &p.topo)
            .fixed("nab_us", p.nab_us, 2)
            .fixed("ab_us", p.ab_us, 2)
            .fixed("foi", p.foi, 2)
            .val("link_waits", p.link_waits)
            .fixed("link_wait_us", p.link_wait_us, 1)
    });
    Record::default()
        .text("schema", "abr-fabric-v1")
        .text("fabric", fabric)
        .obj("best_nab", best)
        .list("points", points)
        .obj("figure", figure.record())
        .render()
}

/// `BENCH_bw.json`: every (message size, series) point of the bandwidth
/// figure under pipeline window `window`, with `peak_ab` naming the series
/// with the highest bypass bandwidth at the largest size.
pub fn bw(window: usize, points: &[BwPoint], figure: &FigureRecord) -> String {
    let peak = peak_ab(points).map(|b| {
        Record::default()
            .val("msg_bytes", b.msg_bytes)
            .text("series", &b.series)
            .fixed("ab_bw_mbs", b.ab_bw_mbs, 2)
    });
    let points = points.iter().map(|p| {
        Record::default()
            .val("msg_bytes", p.msg_bytes)
            .text("series", &p.series)
            .fixed("nab_wall_us", p.nab_wall_us, 2)
            .fixed("ab_wall_us", p.ab_wall_us, 2)
            .fixed("nab_bw_mbs", p.nab_bw_mbs, 2)
            .fixed("ab_bw_mbs", p.ab_bw_mbs, 2)
            .fixed("nab_cpu_us", p.nab_cpu_us, 2)
            .fixed("ab_cpu_us", p.ab_cpu_us, 2)
            .fixed("foi", p.foi, 2)
    });
    Record::default()
        .text("schema", "abr-bw-v1")
        .val("segments", window)
        .obj("peak_ab", peak)
        .list("points", points)
        .obj("figure", figure.record())
        .render()
}

/// `BENCH_tenant.json`: every offered-load point of the saturation sweep,
/// with `headline` stating whether the ab advantage widened from the
/// relaxed to the saturated end.
pub fn tenant(
    seed: u64,
    base_jobs: usize,
    slots: usize,
    points: &[TenantPoint],
    figure: &FigureRecord,
) -> String {
    let head = headline(points).map(|(lo, hi, widening)| {
        Record::default()
            .fixed("adv_relaxed", lo, 3)
            .fixed("adv_saturated", hi, 3)
            .val("widening", widening)
    });
    let points = points.iter().map(|p| {
        Record::default()
            .val("load", p.load)
            .val("jobs", p.jobs)
            .val("ranks", p.ranks)
            .fixed("nab_red_s", p.nab_red_s, 1)
            .fixed("ab_red_s", p.ab_red_s, 1)
            .fixed("advantage", p.advantage(), 3)
            .fixed("nab_p50_us", p.nab_p50_us, 1)
            .fixed("nab_p99_us", p.nab_p99_us, 1)
            .fixed("nab_p999_us", p.nab_p999_us, 1)
            .fixed("ab_p50_us", p.ab_p50_us, 1)
            .fixed("ab_p99_us", p.ab_p99_us, 1)
            .fixed("ab_p999_us", p.ab_p999_us, 1)
            .fixed("nab_fairness", p.nab_fairness, 4)
            .fixed("ab_fairness", p.ab_fairness, 4)
    });
    Record::default()
        .text("schema", "abr-tenant-v1")
        .val("seed", seed)
        .val("base_jobs", base_jobs)
        .val("slots", slots)
        .obj("headline", head)
        .list("points", points)
        .obj("figure", figure.record())
        .render()
}

/// The directory records are written to: `ABR_OUT_DIR`, default `.`.
///
/// # Panics
/// Panics on a set-but-empty `ABR_OUT_DIR`, before anything is written.
pub fn out_dir() -> PathBuf {
    abr_trace::parse_env("ABR_OUT_DIR", parse_out_dir).unwrap_or_else(|| PathBuf::from("."))
}

/// Validate an explicit `ABR_OUT_DIR` value: any non-blank path.
pub fn parse_out_dir(raw: &str) -> Result<PathBuf, String> {
    if raw.trim().is_empty() {
        Err("ABR_OUT_DIR must be a non-empty directory path".to_string())
    } else {
        Ok(PathBuf::from(raw))
    }
}

/// Write `body` to `file_name` inside [`out_dir`], which must already
/// exist.
///
/// # Errors
/// A message naming the path when the file cannot be written.
pub fn write(file_name: &str, body: &str) -> Result<(), String> {
    let path = out_dir().join(file_name);
    std::fs::write(&path, body).map_err(|e| format!("could not write {}: {e}", path.display()))?;
    eprintln!("record written to {}", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig(name: &'static str, points: u64, wall_ms: f64) -> FigureRecord {
        FigureRecord {
            name,
            points,
            wall_ms,
        }
    }

    fn bw_point(msg_bytes: usize, series: &str, ab_bw_mbs: f64) -> BwPoint {
        BwPoint {
            msg_bytes,
            series: series.to_string(),
            nab_wall_us: 100.0,
            ab_wall_us: 80.125,
            nab_bw_mbs: ab_bw_mbs / 2.0,
            ab_bw_mbs,
            nab_cpu_us: 90.0,
            ab_cpu_us: 30.004,
            foi: 2.9996,
        }
    }

    fn fabric_point(size: u32, topo: &str, nab_us: f64) -> FabricPoint {
        FabricPoint {
            size,
            topo: topo.to_string(),
            nab_us,
            ab_us: nab_us / 3.0,
            foi: 3.0,
            link_waits: 10,
            link_wait_us: 5.55,
        }
    }

    fn tenant_point(load: f64, nab_red_s: f64, ab_red_s: f64) -> TenantPoint {
        TenantPoint {
            load,
            jobs: (2.0 * load).ceil() as usize,
            ranks: (20.0 * load) as usize,
            nab_red_s,
            ab_red_s,
            nab_p50_us: 400.04,
            nab_p99_us: 900.0,
            nab_p999_us: 1200.25,
            ab_p50_us: 200.0,
            ab_p99_us: 350.0,
            ab_p999_us: 500.0,
            nab_fairness: 0.97,
            ab_fairness: 0.98765,
        }
    }

    fn scale_run(eps: f64) -> ScaleRunResult {
        ScaleRunResult {
            ranks: 1024,
            events: 27_466,
            wall_secs: 27_466.0 / eps,
            events_per_sec: eps,
            makespan_us: 2118.34,
            packets_delivered: 22_526,
        }
    }

    /// Each schema rendered from fixed inputs, against the exact text the
    /// earlier hand-written per-schema renderers produced for the same
    /// inputs. The cases cover the `null` branches of `peak_ab`, `best_nab`
    /// and `headline`, `{}`-formatted floats (`"load": 1`, `"load": 1.5`),
    /// rounding at each fixed precision, a peak/best judged at the largest
    /// size only (a smaller size holds the overall extreme), the zero-
    /// baseline guard of `advantage`, empty lists, and lists without a
    /// trailing comma. `abr-scale-v2` is the v1 text without the `legacy`
    /// run and the `speedup` ratio.
    #[test]
    fn records_render_byte_exact() {
        let tenant_points = [
            tenant_point(1.0, 2000.0, 2020.0),
            tenant_point(1.5, 9000.0, 12000.0),
            tenant_point(8.0, 30000.0, 62000.0),
        ];
        let cases: [(&str, String, &str); 8] = [
            (
                "sweep",
                sweep(4, 300, &[fig("fig6", 66, 12.5), fig("fig7", 60, 8.25)]),
                "{\n  \"schema\": \"abr-sweep-v1\",\n  \"jobs\": 4,\n  \"iters\": 300,\n  \"total_points\": 126,\n  \"total_wall_ms\": 20.750,\n  \"figures\": [\n    {\"name\": \"fig6\", \"points\": 66, \"wall_ms\": 12.500},\n    {\"name\": \"fig7\", \"points\": 60, \"wall_ms\": 8.250}\n  ]\n}\n",
            ),
            (
                "scale",
                scale(1024, &scale_run(524_803.6), &fig("fig_scale", 12, 721.6159)),
                "{\n  \"schema\": \"abr-scale-v2\",\n  \"scale_max\": 1024,\n  \"throughput\": {\n    \"modern\": {\"ranks\": 1024, \"events\": 27466, \"wall_secs\": 0.052, \"events_per_sec\": 524804, \"makespan_us\": 2118.3, \"packets\": 22526}\n  },\n  \"figure\": {\"name\": \"fig_scale\", \"points\": 12, \"wall_ms\": 721.616}\n}\n",
            ),
            (
                "bw",
                bw(
                    8,
                    &[
                        bw_point(1024, "binomial", 400.0),
                        bw_point(65536, "chain", 120.0),
                        bw_point(65536, "dual-root", 200.126),
                    ],
                    &fig("fig_bandwidth", 12, 7.0),
                ),
                "{\n  \"schema\": \"abr-bw-v1\",\n  \"segments\": 8,\n  \"peak_ab\": {\"msg_bytes\": 65536, \"series\": \"dual-root\", \"ab_bw_mbs\": 200.13},\n  \"points\": [\n    {\"msg_bytes\": 1024, \"series\": \"binomial\", \"nab_wall_us\": 100.00, \"ab_wall_us\": 80.12, \"nab_bw_mbs\": 200.00, \"ab_bw_mbs\": 400.00, \"nab_cpu_us\": 90.00, \"ab_cpu_us\": 30.00, \"foi\": 3.00},\n    {\"msg_bytes\": 65536, \"series\": \"chain\", \"nab_wall_us\": 100.00, \"ab_wall_us\": 80.12, \"nab_bw_mbs\": 60.00, \"ab_bw_mbs\": 120.00, \"nab_cpu_us\": 90.00, \"ab_cpu_us\": 30.00, \"foi\": 3.00},\n    {\"msg_bytes\": 65536, \"series\": \"dual-root\", \"nab_wall_us\": 100.00, \"ab_wall_us\": 80.12, \"nab_bw_mbs\": 100.06, \"ab_bw_mbs\": 200.13, \"nab_cpu_us\": 90.00, \"ab_cpu_us\": 30.00, \"foi\": 3.00}\n  ],\n  \"figure\": {\"name\": \"fig_bandwidth\", \"points\": 12, \"wall_ms\": 7.000}\n}\n",
            ),
            (
                "bw, no points",
                bw(1, &[], &fig("fig_bandwidth", 0, 0.0)),
                "{\n  \"schema\": \"abr-bw-v1\",\n  \"segments\": 1,\n  \"peak_ab\": null,\n  \"points\": [\n  ],\n  \"figure\": {\"name\": \"fig_bandwidth\", \"points\": 0, \"wall_ms\": 0.000}\n}\n",
            ),
            (
                "fabric",
                fabric(
                    "fattree:4:cyclic",
                    &[
                        fabric_point(512, "binomial", 50.0),
                        fabric_point(2048, "binomial", 90.0),
                        fabric_point(2048, "locality4x16:cyclic", 60.005),
                    ],
                    &fig("fig_fabric", 12, 7.0),
                ),
                "{\n  \"schema\": \"abr-fabric-v1\",\n  \"fabric\": \"fattree:4:cyclic\",\n  \"best_nab\": {\"size\": 2048, \"topo\": \"locality4x16:cyclic\", \"nab_us\": 60.01},\n  \"points\": [\n    {\"size\": 512, \"topo\": \"binomial\", \"nab_us\": 50.00, \"ab_us\": 16.67, \"foi\": 3.00, \"link_waits\": 10, \"link_wait_us\": 5.5},\n    {\"size\": 2048, \"topo\": \"binomial\", \"nab_us\": 90.00, \"ab_us\": 30.00, \"foi\": 3.00, \"link_waits\": 10, \"link_wait_us\": 5.5},\n    {\"size\": 2048, \"topo\": \"locality4x16:cyclic\", \"nab_us\": 60.01, \"ab_us\": 20.00, \"foi\": 3.00, \"link_waits\": 10, \"link_wait_us\": 5.5}\n  ],\n  \"figure\": {\"name\": \"fig_fabric\", \"points\": 12, \"wall_ms\": 7.000}\n}\n",
            ),
            (
                "fabric, no points",
                fabric("flat", &[], &fig("fig_fabric", 0, 0.0)),
                "{\n  \"schema\": \"abr-fabric-v1\",\n  \"fabric\": \"flat\",\n  \"best_nab\": null,\n  \"points\": [\n  ],\n  \"figure\": {\"name\": \"fig_fabric\", \"points\": 0, \"wall_ms\": 0.000}\n}\n",
            ),
            (
                "tenant",
                tenant(17, 2, 4, &tenant_points, &fig("fig_tenant", 6, 11.0)),
                "{\n  \"schema\": \"abr-tenant-v1\",\n  \"seed\": 17,\n  \"base_jobs\": 2,\n  \"slots\": 4,\n  \"headline\": {\"adv_relaxed\": 1.010, \"adv_saturated\": 2.067, \"widening\": true},\n  \"points\": [\n    {\"load\": 1, \"jobs\": 2, \"ranks\": 20, \"nab_red_s\": 2000.0, \"ab_red_s\": 2020.0, \"advantage\": 1.010, \"nab_p50_us\": 400.0, \"nab_p99_us\": 900.0, \"nab_p999_us\": 1200.2, \"ab_p50_us\": 200.0, \"ab_p99_us\": 350.0, \"ab_p999_us\": 500.0, \"nab_fairness\": 0.9700, \"ab_fairness\": 0.9877},\n    {\"load\": 1.5, \"jobs\": 3, \"ranks\": 30, \"nab_red_s\": 9000.0, \"ab_red_s\": 12000.0, \"advantage\": 1.333, \"nab_p50_us\": 400.0, \"nab_p99_us\": 900.0, \"nab_p999_us\": 1200.2, \"ab_p50_us\": 200.0, \"ab_p99_us\": 350.0, \"ab_p999_us\": 500.0, \"nab_fairness\": 0.9700, \"ab_fairness\": 0.9877},\n    {\"load\": 8, \"jobs\": 16, \"ranks\": 160, \"nab_red_s\": 30000.0, \"ab_red_s\": 62000.0, \"advantage\": 2.067, \"nab_p50_us\": 400.0, \"nab_p99_us\": 900.0, \"nab_p999_us\": 1200.2, \"ab_p50_us\": 200.0, \"ab_p99_us\": 350.0, \"ab_p999_us\": 500.0, \"nab_fairness\": 0.9700, \"ab_fairness\": 0.9877}\n  ],\n  \"figure\": {\"name\": \"fig_tenant\", \"points\": 6, \"wall_ms\": 11.000}\n}\n",
            ),
            (
                "tenant, one point, zero baseline",
                tenant(17, 2, 4, &[tenant_point(1.0, 0.0, 10.0)], &fig("fig_tenant", 1, 1.0)),
                "{\n  \"schema\": \"abr-tenant-v1\",\n  \"seed\": 17,\n  \"base_jobs\": 2,\n  \"slots\": 4,\n  \"headline\": null,\n  \"points\": [\n    {\"load\": 1, \"jobs\": 2, \"ranks\": 20, \"nab_red_s\": 0.0, \"ab_red_s\": 10.0, \"advantage\": 0.000, \"nab_p50_us\": 400.0, \"nab_p99_us\": 900.0, \"nab_p999_us\": 1200.2, \"ab_p50_us\": 200.0, \"ab_p99_us\": 350.0, \"ab_p999_us\": 500.0, \"nab_fairness\": 0.9700, \"ab_fairness\": 0.9877}\n  ],\n  \"figure\": {\"name\": \"fig_tenant\", \"points\": 1, \"wall_ms\": 1.000}\n}\n",
            ),
        ];
        for (name, got, want) in cases {
            assert_eq!(got, want, "{name} record drifted from its committed format");
            abr_trace::validate_json(&got).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn parse_out_dir_rejects_blank() {
        assert_eq!(parse_out_dir("out"), Ok(PathBuf::from("out")));
        for bad in ["", "   "] {
            let err = parse_out_dir(bad).unwrap_err();
            assert!(err.contains("ABR_OUT_DIR"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn write_into_missing_directory_is_an_error() {
        let err = write("no-such-dir-for-abr-records/BENCH_probe.json", "{}\n").unwrap_err();
        assert!(
            err.contains("no-such-dir-for-abr-records/BENCH_probe.json"),
            "error must name the path: {err}"
        );
    }

    #[test]
    fn timed_figure_attributes_points() {
        use abr_cluster::sweep::Sweep;
        let (out, rec) = timed_figure("probe", || Sweep::with_jobs(1).map(&[1u8, 2], |&x| x));
        assert_eq!(out, [1, 2]);
        assert_eq!(rec.name, "probe");
        assert!(rec.points >= 2);
        assert!(rec.wall_ms >= 0.0);
    }
}
