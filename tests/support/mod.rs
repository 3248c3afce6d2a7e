//! The random-program generator shared by the property suites: small
//! multi-threaded CIL programs over a fixed op vocabulary (locked and
//! unlocked reads and writes of a few globals). `main` allocates the lock,
//! spawns one worker per generated body and joins them all.

use proptest::prelude::*;

/// One statement in a generated worker body.
#[derive(Clone, Copy, Debug)]
pub enum Op {
    Read(u8),
    Write(u8),
    LockedRead(u8),
    LockedWrite(u8),
    Nop,
}

fn arb_op(globals: u8, allow_unlocked_writes: bool) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..globals).prop_map(Op::Read),
        (0..globals).prop_map(move |g| if allow_unlocked_writes {
            Op::Write(g)
        } else {
            Op::LockedWrite(g)
        }),
        (0..globals).prop_map(Op::LockedRead),
        (0..globals).prop_map(Op::LockedWrite),
        Just(Op::Nop),
    ]
}

/// A program of one to three workers, each one to five ops over `globals`
/// globals, rendered to CIL source and returned with its op lists. With
/// `allow_unlocked_writes` false every write is locked.
pub fn arb_program(
    globals: u8,
    allow_unlocked_writes: bool,
) -> impl Strategy<Value = (String, Vec<Vec<Op>>)> {
    proptest::collection::vec(
        proptest::collection::vec(arb_op(globals, allow_unlocked_writes), 1..6),
        1..4,
    )
    .prop_map(move |threads| (render_program(globals, &threads), threads))
}

fn render_program(globals: u8, threads: &[Vec<Op>]) -> String {
    use std::fmt::Write as _;
    let mut source = String::from("class Lock { }\nglobal lk;\n");
    for g in 0..globals {
        let _ = writeln!(source, "global g{g} = 0;");
    }
    for (t, body) in threads.iter().enumerate() {
        let _ = writeln!(source, "proc worker{t}() {{");
        let _ = writeln!(source, "    var tmp = 0;");
        for op in body {
            match op {
                Op::Read(g) => {
                    let _ = writeln!(source, "    tmp = g{g};");
                }
                Op::Write(g) => {
                    let _ = writeln!(source, "    g{g} = tmp + 1;");
                }
                Op::LockedRead(g) => {
                    let _ = writeln!(source, "    sync (lk) {{ tmp = g{g}; }}");
                }
                Op::LockedWrite(g) => {
                    let _ = writeln!(source, "    sync (lk) {{ g{g} = tmp + 1; }}");
                }
                Op::Nop => {
                    let _ = writeln!(source, "    nop;");
                }
            }
        }
        let _ = writeln!(source, "}}");
    }
    source.push_str("proc main() {\n    lk = new Lock;\n");
    for t in 0..threads.len() {
        let _ = writeln!(source, "    var t{t} = spawn worker{t}();");
    }
    for t in 0..threads.len() {
        let _ = writeln!(source, "    join t{t};");
    }
    source.push_str("}\n");
    source
}
