//! Scenario texts the workloads submit, generated from the run seed.
//!
//! The population *shape* of each workload is fixed — cohorts, counts,
//! capacitors, environment parameters — and the seed drives the master
//! seed, which picks every device's power trace and every cohort's
//! kernel inputs. A fixed shape keeps run-to-run spread small while each
//! seed still hands the program inputs it has not seen.

use crate::stats::mix;

/// Scenario master seed for draw `index` of stream `salt` under the run
/// seed (kept below 2^31 so every scenario grammar reads it exactly).
pub fn scenario_seed(run_seed: u64, salt: u64, index: u64) -> u64 {
    mix(mix(run_seed ^ mix(salt)) ^ index) % 2_000_000_000
}

/// name, devices, benchmark, technique, substrate, capacitance (µF), and
/// the environment family with its `key = value` parameters.
type Cohort = (
    &'static str,
    u64,
    &'static str,
    &'static str,
    &'static str,
    f64,
    &'static str,
);

const SOLAR: &str = "environment = \"solar\"\nday_s = 10.0";
const PIEZO: &str = "environment = \"piezo\"\nimpulse_uw = 2000.0\ngap_ms = 40.0";
const RF: &str = "environment = \"rf-bursty\"";

fn render(name: &str, seed: u64, shard_size: u64, wall_limit_s: f64, cohorts: &[Cohort]) -> String {
    let mut s = format!(
        "[fleet]\nname = \"{name}\"\nseed = {seed}\nshard_size = {shard_size}\n\
         wall_limit_s = {wall_limit_s:.1}\ntrace_duration_s = 20.0\nscale = \"quick\"\n"
    );
    for (name, count, benchmark, technique, substrate, capacitance_uf, env) in cohorts {
        s.push_str(&format!(
            "\n[[cohort]]\nname = \"{name}\"\ncount = {count}\nbenchmark = \"{benchmark}\"\n\
             technique = \"{technique}\"\nsubstrate = \"{substrate}\"\n\
             capacitance_uf = {capacitance_uf:.2}\n{env}\n"
        ));
    }
    s
}

/// 640 precise devices on Clank and NVP across all three environment
/// families, heavy (conv2d) beside light (home, netmotion) kernels: every
/// device rides its cohort's execution tape.
fn tape_cohorts() -> Vec<Cohort> {
    vec![
        ("conv2d-clank-rf", 64, "conv2d", "precise", "clank", 1.0, RF),
        (
            "conv2d-nvp-solar",
            64,
            "conv2d",
            "precise",
            "nvp",
            1.0,
            SOLAR,
        ),
        ("home-nvp-solar", 128, "home", "precise", "nvp", 1.0, SOLAR),
        (
            "home-clank-piezo",
            128,
            "home",
            "precise",
            "clank",
            2.2,
            PIEZO,
        ),
        (
            "netmotion-clank-rf",
            128,
            "netmotion",
            "precise",
            "clank",
            1.0,
            RF,
        ),
        (
            "netmotion-nvp-piezo",
            128,
            "netmotion",
            "precise",
            "nvp",
            2.2,
            PIEZO,
        ),
    ]
}

/// 610 devices that leave the tape or never ride it: anytime/skim builds
/// on Clank and NVP (skimming devices peel onto the scalar path), task
/// cohorts (always scalar), and two devices of the never-committing
/// matadd / precise / task / rf-bursty cohort at 1 µF that burn the whole
/// 60 s simulated limit.
fn diverge_cohorts() -> Vec<Cohort> {
    vec![
        (
            "matmul-swp8-clank-rf",
            128,
            "matmul",
            "swp8",
            "clank",
            1.0,
            RF,
        ),
        (
            "home-anytime8-nvp-solar",
            128,
            "home",
            "anytime8",
            "nvp",
            1.0,
            SOLAR,
        ),
        (
            "conv2d-swp4-nvp-piezo",
            64,
            "conv2d",
            "swp4",
            "nvp",
            2.2,
            PIEZO,
        ),
        (
            "netmotion-anytime8-clank-piezo",
            96,
            "netmotion",
            "anytime8",
            "clank",
            1.0,
            PIEZO,
        ),
        (
            "var-anytime8-task-rf",
            96,
            "var",
            "anytime8",
            "task",
            10.0,
            RF,
        ),
        (
            "matadd-precise-task-rf",
            96,
            "matadd",
            "precise",
            "task",
            15.0,
            RF,
        ),
        (
            "futile-matadd-precise-task-rf",
            2,
            "matadd",
            "precise",
            "task",
            1.0,
            RF,
        ),
    ]
}

pub fn fleet_tape(seed: u64) -> String {
    render("perf-tape", seed, 32, 600.0, &tape_cohorts())
}

pub fn fleet_diverge(seed: u64) -> String {
    render("perf-diverge", seed, 64, 60.0, &diverge_cohorts())
}

/// Both fleet populations' cohorts in one scenario, under the shorter
/// (60 s) limit, which every tape cohort finishes well inside.
pub fn predict_population(seed: u64) -> String {
    let mut cohorts = tape_cohorts();
    cohorts.extend(diverge_cohorts());
    render("perf-predict", seed, 64, 60.0, &cohorts)
}

/// A small served job: 24 devices in three shards, one cohort per
/// substrate plus a second checkpoint cohort, all three environment
/// families — cheap enough that the protocol, journal, checkpoints and
/// store do most of the work.
pub fn serve_job(seed: u64) -> String {
    render(
        "perf-serve",
        seed,
        8,
        600.0,
        &[
            (
                "matadd-precise-clank-rf",
                6,
                "matadd",
                "precise",
                "clank",
                1.0,
                RF,
            ),
            (
                "home-anytime8-nvp-solar",
                6,
                "home",
                "anytime8",
                "nvp",
                1.0,
                SOLAR,
            ),
            (
                "netmotion-precise-nvp-piezo",
                6,
                "netmotion",
                "precise",
                "nvp",
                2.2,
                PIEZO,
            ),
            (
                "var-anytime8-task-rf",
                6,
                "var",
                "anytime8",
                "task",
                10.0,
                RF,
            ),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use wn_fleet::FleetScenario;

    #[test]
    fn populations_parse_with_their_documented_sizes() {
        for (text, devices) in [
            (fleet_tape(1), 640),
            (fleet_diverge(1), 610),
            (predict_population(1), 1250),
            (serve_job(1), 24),
        ] {
            let s = FleetScenario::parse(&text).expect("generated scenario parses");
            assert_eq!(s.total_devices(), devices);
        }
    }

    #[test]
    fn seeds_change_inputs_not_shape() {
        let a = FleetScenario::parse(&fleet_tape(scenario_seed(1, 0, 0))).unwrap();
        let b = FleetScenario::parse(&fleet_tape(scenario_seed(2, 0, 0))).unwrap();
        assert_ne!(a.seed, b.seed);
        assert_eq!(a.cohorts, b.cohorts);
    }
}
