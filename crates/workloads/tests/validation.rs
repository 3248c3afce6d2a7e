//! Every workload model must satisfy the flat-IR structural invariants —
//! the dynamic analyses assume them, so a corrupt model would corrupt the
//! reproduction silently.

use cil::validate::validate;

#[test]
fn every_workload_program_validates() {
    for workload in workloads::all() {
        let errors = validate(&workload.program);
        assert!(errors.is_empty(), "{}: {:?}", workload.name, errors);
    }
}

#[test]
fn figure_programs_validate() {
    assert!(validate(&workloads::figure1()).is_empty());
    for pad in [0, 50, 200] {
        assert!(validate(&workloads::figure2(pad)).is_empty(), "pad {pad}");
    }
}

#[test]
fn every_workload_memory_tag_resolves() {
    // Each model documents its racy statements through tags; the ones
    // below must resolve to exactly one shared access. (Statements like
    // `cfg.p1 = 1` legitimately cover two — the global load of `cfg` and
    // the field store — and are addressed with `tagged_accesses` instead.)
    let cases: &[(&str, &[&str])] = &[
        ("moldyn", &["bar_bump", "bar_spin", "r1"]),
        ("montecarlo", &["result_store"]),
        ("cache4j", &["sleep_set", "sleep_check"]),
        ("hedc", &["result_read", "result_write"]),
        ("weblech", &["size_peek", "size_dec"]),
    ];
    let workloads = workloads::all();
    for (name, tags) in cases {
        let workload = workloads
            .iter()
            .find(|workload| workload.name == *name)
            .unwrap_or_else(|| panic!("{name} registered"));
        for tag in *tags {
            let instr = workload.program.tagged_access(tag);
            assert!(
                workload.program.instr(instr).is_memory_access(),
                "{name}/{tag}"
            );
        }
    }
}
