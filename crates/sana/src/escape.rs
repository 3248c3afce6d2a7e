//! Points-to-derived thread-escape analysis.
//!
//! An allocation site **escapes** its creating thread when a reference to
//! it may become reachable by another thread. The roots are exactly the
//! cross-thread channels:
//!
//! - every site a **global** may hold ([`PointsTo::global`]);
//! - every site passed as a **spawn argument** (it lands in the child
//!   thread's frame);
//! - every site stored through an `unknown` base ([`PointsTo::leaked`] —
//!   the analysis cannot tell *where* it went, so it may be anywhere).
//!
//! Escape then closes over heap reachability: if an object escapes, so
//! does everything its fields and elements may hold — another thread can
//! follow the pointer chain. Unlike the previous ad-hoc pass (which
//! treated *any* heap store as publication), a store into a **confined
//! container** no longer leaks the payload: the container's cells are only
//! reachable by the one thread that can reach the container.
//!
//! References that move only through locals, call arguments, return
//! values, and confined heap cells stay with the creating thread, so every
//! access whose base object is proven non-escaping is executed by one
//! thread only and can never race.

use std::collections::VecDeque;

use cil::bytecode::AbstractPlace;
use cil::flat::{Instr, InstrId, LocalId};
use cil::Program;

use crate::cfg::Cfg;
use crate::points_to::PointsTo;

/// Escape facts per allocation site.
#[derive(Clone, Debug)]
pub struct EscapeAnalysis {
    /// `escaped[instr]` is meaningful for `New`/`NewArray` sites only.
    escaped: Vec<bool>,
}

impl EscapeAnalysis {
    /// Marks every allocation site whose reference may leave its creating
    /// thread, seeding from globals, spawn arguments, and leaked stores,
    /// then closing over heap reachability.
    pub fn build(program: &Program, cfg: &Cfg, pts: &PointsTo) -> EscapeAnalysis {
        let mut escaped = vec![false; program.instr_count()];
        let mut queue: VecDeque<InstrId> = VecDeque::new();
        let root = |site: InstrId, escaped: &mut Vec<bool>, queue: &mut VecDeque<InstrId>| {
            if !escaped[site.index()] {
                escaped[site.index()] = true;
                queue.push_back(site);
            }
        };

        for global in 0..program.globals.len() {
            for &site in &pts.global(cil::flat::GlobalId(global as u32)).sites {
                root(site, &mut escaped, &mut queue);
            }
        }
        for (index, instr) in program.instrs.iter().enumerate() {
            if let Instr::Spawn { args, .. } = instr {
                let proc = cfg.owner(InstrId(index as u32));
                for arg in args {
                    if let cil::flat::PureExpr::Local(local) = arg {
                        for &site in &pts.local(proc, *local).sites {
                            root(site, &mut escaped, &mut queue);
                        }
                    }
                }
            }
        }
        for &site in &pts.leaked().sites {
            root(site, &mut escaped, &mut queue);
        }

        while let Some(site) = queue.pop_front() {
            for contents in pts.heap_contents(site) {
                for &held in &contents.sites {
                    root(held, &mut escaped, &mut queue);
                }
            }
        }
        EscapeAnalysis { escaped }
    }

    /// May a reference allocated at `site` become visible to another thread?
    pub fn escapes(&self, site: InstrId) -> bool {
        self.escaped[site.index()]
    }

    /// Is `id` a field/element access whose base object certainly never
    /// escapes its creating thread? Such accesses cannot race: only the
    /// allocating thread can ever reach the object. The base register
    /// comes from the bytecode footprint table — the shared access view.
    pub fn confined_access(
        &self,
        program: &Program,
        cfg: &Cfg,
        pts: &PointsTo,
        id: InstrId,
    ) -> bool {
        let accesses = program.bytecode().accesses_of(id);
        if accesses.is_empty() {
            return false;
        }
        // Every access must be through a confined base (globals are shared
        // by definition, so any global access defeats confinement).
        accesses.iter().all(|access| {
            let base: Option<LocalId> = match access.place {
                AbstractPlace::Field { obj, .. } => Some(obj),
                AbstractPlace::Elem { arr, .. } => Some(arr),
                AbstractPlace::Global(_) => None,
            };
            let Some(base) = base else { return false };
            let set = pts.local(cfg.owner(id), base);
            !set.unknown
                && !set.sites.is_empty()
                && set.sites.iter().all(|site| !self.escapes(*site))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze(source: &str) -> (Program, Cfg, PointsTo, EscapeAnalysis) {
        let program = cil::compile(source).unwrap();
        let cfg = Cfg::build(&program);
        let entry = program.proc_named("main").unwrap();
        let pts = PointsTo::build(&program, &cfg, entry);
        let escape = EscapeAnalysis::build(&program, &cfg, &pts);
        (program, cfg, pts, escape)
    }

    #[test]
    fn local_scratch_object_is_confined() {
        let (program, cfg, pts, escape) = analyze(
            r#"
            class Point { x }
            proc main() {
                var p = new Point;
                @w p.x = 1;
                @r var v = p.x;
                print v;
            }
            "#,
        );
        assert!(escape.confined_access(&program, &cfg, &pts, program.tagged_access("w")));
        assert!(escape.confined_access(&program, &cfg, &pts, program.tagged_access("r")));
    }

    #[test]
    fn global_published_object_escapes() {
        let (program, cfg, pts, escape) = analyze(
            r#"
            class Point { x }
            global shared;
            proc main() {
                var p = new Point;
                shared = p;
                @w p.x = 1;
            }
            "#,
        );
        assert!(!escape.confined_access(&program, &cfg, &pts, program.tagged_access("w")));
    }

    #[test]
    fn spawn_argument_escapes() {
        let (program, cfg, pts, escape) = analyze(
            r#"
            class Point { x }
            proc worker(p) { @remote p.x = 2; }
            proc main() {
                var p = new Point;
                var t = spawn worker(p);
                @local p.x = 1;
                join t;
            }
            "#,
        );
        assert!(!escape.confined_access(&program, &cfg, &pts, program.tagged_access("local")));
        assert!(!escape.confined_access(&program, &cfg, &pts, program.tagged_access("remote")));
    }

    #[test]
    fn call_argument_does_not_escape() {
        let (program, cfg, pts, escape) = analyze(
            r#"
            class Point { x }
            proc bump(p) { @callee p.x = p.x + 1; }
            proc main() {
                var p = new Point;
                bump(p);
                @caller var v = p.x;
                print v;
            }
            "#,
        );
        assert!(escape.confined_access(&program, &cfg, &pts, program.tagged_access("caller")));
        assert!(escape.confined_access(&program, &cfg, &pts, program.tagged_accesses("callee")[0]));
    }

    #[test]
    fn store_into_confined_container_stays_confined() {
        // The old reachability pass leaked `p` the moment it was stored
        // into *any* heap cell; points-to keeps it confined because the
        // container itself never escapes.
        let (program, cfg, pts, escape) = analyze(
            r#"
            class Box { inner }
            class Point { x }
            proc main() {
                var b = new Box;
                var p = new Point;
                b.inner = p;
                var q = b.inner;
                @w q.x = 1;
            }
            "#,
        );
        assert!(escape.confined_access(&program, &cfg, &pts, program.tagged_access("w")));
    }

    #[test]
    fn escape_closes_over_published_containers() {
        let (program, cfg, pts, escape) = analyze(
            r#"
            class Box { inner }
            class Point { x }
            global shared;
            proc main() {
                var b = new Box;
                var p = new Point;
                b.inner = p;
                shared = b;
                @w p.x = 1;
            }
            "#,
        );
        // Publishing the container publishes its contents.
        assert!(!escape.confined_access(&program, &cfg, &pts, program.tagged_access("w")));
    }
}
