//! The untraced run: every end-to-end metric of one workload.

use crate::report::{Kind, Report};
use crate::run::{read_peak_rss_mb, timed_reps, Options, MIN_REPS};
use crate::setup::Setup;
use crate::spec::Workload;
use crate::stats::{fastest_quarter_mean, median};
use crate::trace::Tracer;

/// Set-ups per run: `setup_s` is the fastest of them (the fastest quarter).
const SETUPS: usize = 6;

pub fn end_to_end(w: Workload, opts: &Options) -> Report {
    let off = Tracer::new(w.name(), false);
    let setup = Setup::build(w, opts.seed, opts.quick, &off);
    // The other set-ups are spread through the timed loop (one each time
    // another 1/SETUPS of the budget has passed), so the host's slow spells,
    // which last seconds, cannot catch them all. Each is dropped at once.
    let mut setup_secs = vec![setup.secs];
    let extra = if opts.quick { 0 } else { SETUPS - 1 };
    let timed = timed_reps(&setup, opts, MIN_REPS, |used| {
        if setup_secs.len() <= extra && used * SETUPS as f64 >= setup_secs.len() as f64 {
            setup_secs.push(Setup::build(w, opts.seed, opts.quick, &off).secs);
        }
    });
    while setup_secs.len() <= extra {
        setup_secs.push(Setup::build(w, opts.seed, opts.quick, &off).secs);
    }
    let wall = timed.wall_secs();
    let sim = timed.last.sim(&setup);
    let (_, host_bytes) = timed.last.run.table.host_footprint();

    let mut r = Report::new(w, Kind::EndToEnd);
    r.tally = timed.tally;
    r.put("setup_s", fastest_quarter_mean(&setup_secs));
    r.put("wall_records_per_s", setup.dataset.len() as f64 / wall);
    r.put("sim_total_us", sim.total.as_secs_f64() * 1e6);
    r.put("sim_speedup_vs_cpu", setup.cpu_sim.ratio(sim.total));
    r.put(
        "host_bytes_per_input_byte",
        host_bytes as f64 / setup.dataset.size_bytes() as f64,
    );
    r.put("peak_rss_mb", timed.peak_rss_mb);

    r.note("seed", opts.seed as f64, "count");
    r.note("scale", setup.scale as f64, "count");
    r.note("input_records", setup.dataset.len() as f64, "count");
    r.note("input_bytes", setup.dataset.size_bytes() as f64, "B");
    r.note("iterations", f64::from(sim.iterations), "count");
    for secs in &setup_secs {
        r.note("setup_sample_s", *secs, "s");
    }
    r.note("reps", timed.walls.len() as f64, "count");
    for (wall, calib) in timed.walls.iter().zip(&timed.calibs) {
        r.note("rep_wall_s", *wall, "s");
        r.note("rep_calib_mops", *calib, "1/us");
    }
    r.note("rep_wall_s_fastest_quarter_mean", wall, "s");
    r.note("rep_wall_s_median", median(&timed.walls), "s");
    r.note("noisy_reps", timed.noisy_reps() as f64, "count");
    r.note("calib_mops", timed.calib_mops(), "1/us");
    r.note("peak_rss_mb_at_exit", read_peak_rss_mb(), "MB");
    r
}
