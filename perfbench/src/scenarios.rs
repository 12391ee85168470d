//! Scenario files generated from the workload seed. The program only ever
//! sees these files (or, for the daemon, these bodies).

/// SplitMix64: spreads one seed into independent 48-bit sub-seeds (small
/// enough to stay exact in any JSON reader).
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) & ((1 << 48) - 1)
}

/// A 1024-ToR parallel fabric at paper geometry (8 × 100G uplinks, 400G
/// hosts), negotiator only, healthy, one Poisson Hadoop phase at 60%.
pub fn kernel_1024(seed: u64) -> String {
    format!(
        r#"{{
  "name": "kernel_1024",
  "description": "Healthy 1024-ToR parallel fabric, one 60% Hadoop phase, negotiator only",
  "topology": "parallel", "tors": 1024, "ports": 8, "port_gbps": 100, "host_gbps": 400,
  "seed": {},
  "engines": ["negotiator"],
  "phases": [
    {{"label": "hadoop60", "workload": "poisson", "dist": "hadoop", "load": 60, "epochs": [0, 60]}}
  ]
}}
"#,
        mix(seed, 1)
    )
}

/// A 128-ToR thin-clos fabric at paper scale through both engines: full
/// Hadoop load, a 64-to-1 incast storm, Google traffic over flapping
/// links, then Hadoop over randomly failed links and after their repair.
/// The faults sit in the same places at every seed; the seed moves the
/// traffic and the engines' own randomness.
pub fn faults_thinclos_128(seed: u64) -> String {
    format!(
        r#"{{
  "name": "faults_thinclos_128",
  "description": "128-ToR thin-clos: full load, 64-to-1 incast, flapping links, random failures and repair",
  "topology": "thin_clos", "tors": 128, "ports": 8, "port_gbps": 100, "host_gbps": 400,
  "seed": {},
  "phases": [
    {{"label": "hadoop100", "workload": "poisson", "dist": "hadoop", "load": 100, "epochs": [0, 100]}},
    {{"label": "incast64", "workload": "incast", "degree": 64, "flow_bytes": 20000, "every_epochs": 5, "epochs": [100, 200]}},
    {{"label": "google80_flapping", "workload": "poisson", "dist": "google", "load": 80, "epochs": [200, 300],
     "faults": {{"flap": {{"links": [
       {{"tor": 3, "port": 1, "dir": "egress"}},
       {{"tor": 40, "port": 2, "dir": "ingress"}},
       {{"tor": 99, "port": 5, "dir": "egress"}}], "up_epochs": 3, "down_epochs": 2}}}}}},
    {{"label": "hadoop80_failed", "workload": "poisson", "dist": "hadoop", "load": 80, "epochs": [300, 400]}},
    {{"label": "hadoop80_repaired", "workload": "poisson", "dist": "hadoop", "load": 80, "epochs": [400, 500]}}
  ],
  "events": [
    {{"at_epoch": 300, "action": "fail_random", "ratio": 0.02, "seed": 11}},
    {{"at_epoch": 400, "action": "repair_links"}}
  ]
}}
"#,
        mix(seed, 2)
    )
}

/// The curated 16-ToR scenario shapes daemon bodies follow, in turn.
pub const SHAPES: [&str; 5] = [
    "steady_state",
    "incast_storm",
    "flapping_links",
    "gray_control_plane",
    "partition_heal",
];

/// Distinct daemon body number `index`: shape `index % 5` of the curated
/// library, on a 16-ToR fabric, with a seed of its own.
pub fn daemon_body(seed: u64, index: usize) -> String {
    let s = mix(seed, 100 + index as u64);
    let head = |name: &str| {
        format!(
            r#""name": "{name}", "topology": "parallel", "tors": 16, "ports": 4, "host_gbps": 200, "seed": {s},"#
        )
    };
    let hadoop = |label: &str, load: u32, from: u32, to: u32| {
        format!(
            r#"{{"label": "{label}", "workload": "poisson", "dist": "hadoop", "load": {load}, "epochs": [{from}, {to}]}}"#
        )
    };
    let body = match index % SHAPES.len() {
        0 => format!(
            "{} \"phases\": [{}]",
            head("steady_state"),
            hadoop("steady", 60, 0, 240)
        ),
        1 => format!(
            r#"{} "phases": [
    {{"label": "warmup", "workload": "poisson", "dist": "google", "load": 30, "epochs": [0, 80]}},
    {{"label": "storm", "workload": "incast", "degree": 12, "flow_bytes": 20000, "every_epochs": 5, "epochs": [80, 160]}},
    {{"label": "cooldown", "workload": "poisson", "dist": "google", "load": 30, "epochs": [160, 240]}}]"#,
            head("incast_storm")
        ),
        2 => format!(
            r#"{} "phases": [
    {},
    {{"label": "flapping", "workload": "poisson", "dist": "hadoop", "load": 70, "epochs": [40, 100],
     "faults": {{"flap": {{"links": [
       {{"tor": 0, "port": 1, "dir": "egress"}},
       {{"tor": 5, "port": 2, "dir": "ingress"}},
       {{"tor": 11, "port": 0, "dir": "egress"}}], "up_epochs": 3, "down_epochs": 2}}}}}},
    {}]"#,
            head("flapping_links"),
            hadoop("healthy", 70, 0, 40),
            hadoop("settled", 70, 100, 140)
        ),
        3 => format!(
            r#"{} "engines": ["negotiator"], "phases": [
    {},
    {{"label": "gray", "workload": "poisson", "dist": "hadoop", "load": 60, "epochs": [40, 100],
     "faults": {{"gray": {{"drop_prob": 0.8, "seed": {}, "tors": [2, 7, 12]}}}}}},
    {}]"#,
            head("gray_control_plane"),
            hadoop("healthy", 60, 0, 40),
            mix(s, 1),
            hadoop("clear", 60, 100, 140)
        ),
        _ => format!(
            r#"{} "phases": [{}, {}, {}],
  "events": [
    {{"at_epoch": 40, "inject": {{"kind": "partition", "groups": 2, "seed": {}}}}},
    {{"at_epoch": 90, "inject": {{"kind": "heal"}}}}]"#,
            head("partition_heal"),
            hadoop("healthy", 60, 0, 40),
            hadoop("split", 60, 40, 90),
            hadoop("healed", 60, 90, 140),
            mix(s, 2)
        ),
    };
    format!("{{{body}\n}}\n")
}

/// The distinct body behind submission number `item`: three of every
/// four submissions carry a new body; the fourth repeats the body sent
/// three submissions earlier, so the daemon's cache both misses and hits.
pub fn body_of_item(item: usize) -> usize {
    let (round, slot) = (item / 4, item % 4);
    round * 3 + if slot == 3 { 0 } else { slot }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn compiles(text: &str) -> bench::scenario::CompiledScenario {
        bench::scenario::load_str(text, Path::new("gen.json"))
            .unwrap_or_else(|e| panic!("{e}\n{text}"))
    }

    #[test]
    fn generated_scenarios_validate_and_follow_the_seed() {
        for seed in [1, 2, 99] {
            let k = compiles(&kernel_1024(seed));
            assert_eq!(k.spec.net.n_tors, 1024);
            let f = compiles(&faults_thinclos_128(seed));
            assert_eq!(f.spec.engines.len(), 2);
            for (index, shape) in SHAPES.iter().enumerate() {
                let d = compiles(&daemon_body(seed, index));
                assert_eq!(d.spec.name, *shape);
            }
        }
        assert_eq!(kernel_1024(5), kernel_1024(5));
        assert_ne!(faults_thinclos_128(5), faults_thinclos_128(6));
        assert_ne!(daemon_body(5, 0), daemon_body(5, 5));
    }

    #[test]
    fn one_submission_in_four_repeats_an_earlier_body() {
        let bodies: Vec<usize> = (0..8).map(body_of_item).collect();
        assert_eq!(bodies, vec![0, 1, 2, 0, 3, 4, 5, 3]);
    }
}
