//! Pretty-printing of the flat IR.
//!
//! The disassembly is the debugging view used by race reports: each
//! instruction is shown with resolved names and its source position, so a
//! reported racing pair like `(jigsaw.cil:42, jigsaw.cil:97)` can be read
//! directly.

use crate::flat::{CatchKinds, Instr, InstrId, Program, PureExpr};
use std::fmt::Write as _;

/// Renders one instruction with resolved names.
///
/// # Panics
///
/// Panics if `id` is out of range for `program`.
pub fn instr_to_string(program: &Program, id: InstrId) -> String {
    let proc = &program.procs[program.proc_of(id).index()];
    let local = |slot: crate::flat::LocalId| proc.local_names[slot.index()].to_string();
    let pure = |expr: &PureExpr| pure_to_string(proc, expr);

    match program.instr(id) {
        Instr::Assign { dst, expr } => format!("{} = {}", local(*dst), pure(expr)),
        Instr::LoadGlobal { dst, global } => format!(
            "{} = {}",
            local(*dst),
            program.name(program.globals[global.index()].name)
        ),
        Instr::StoreGlobal { global, src } => format!(
            "{} = {}",
            program.name(program.globals[global.index()].name),
            pure(src)
        ),
        Instr::LoadField { dst, obj, field } => {
            format!("{} = {}.{}", local(*dst), local(*obj), program.name(*field))
        }
        Instr::StoreField { obj, field, src } => {
            format!("{}.{} = {}", local(*obj), program.name(*field), pure(src))
        }
        Instr::LoadElem { dst, arr, idx } => {
            format!("{} = {}[{}]", local(*dst), local(*arr), pure(idx))
        }
        Instr::StoreElem { arr, idx, src } => {
            format!("{}[{}] = {}", local(*arr), pure(idx), pure(src))
        }
        Instr::New { dst, class } => format!(
            "{} = new {}",
            local(*dst),
            program.name(program.classes[class.index()].name)
        ),
        Instr::NewArray { dst, len } => format!("{} = new [{}]", local(*dst), pure(len)),
        Instr::Lock { obj, monitor } => format!(
            "{} {}",
            if *monitor { "monitorenter" } else { "lock" },
            local(*obj)
        ),
        Instr::Unlock { obj, monitor } => format!(
            "{} {}",
            if *monitor { "monitorexit" } else { "unlock" },
            local(*obj)
        ),
        Instr::Wait { obj } => format!("wait {}", local(*obj)),
        Instr::Notify { obj } => format!("notify {}", local(*obj)),
        Instr::NotifyAll { obj } => format!("notifyall {}", local(*obj)),
        Instr::Spawn {
            dst,
            proc: callee,
            args,
        } => {
            let args: Vec<String> = args.iter().map(pure).collect();
            let call = format!(
                "spawn {}({})",
                program.name(program.procs[callee.index()].name),
                args.join(", ")
            );
            match dst {
                Some(dst) => format!("{} = {}", local(*dst), call),
                None => call,
            }
        }
        Instr::Join { thread } => format!("join {}", local(*thread)),
        Instr::Interrupt { thread } => format!("interrupt {}", local(*thread)),
        Instr::Sleep { duration } => format!("sleep {}", pure(duration)),
        Instr::Call {
            dst,
            proc: callee,
            args,
        } => {
            let args: Vec<String> = args.iter().map(pure).collect();
            let call = format!(
                "call {}({})",
                program.name(program.procs[callee.index()].name),
                args.join(", ")
            );
            match dst {
                Some(dst) => format!("{} = {}", local(*dst), call),
                None => call,
            }
        }
        Instr::Return { value } => match value {
            Some(value) => format!("return {}", pure(value)),
            None => "return".to_string(),
        },
        Instr::Jump { target } => format!("jump {}", target),
        Instr::Branch {
            cond,
            if_true,
            if_false,
        } => format!("branch {} ? {} : {}", pure(cond), if_true, if_false),
        Instr::Assert { cond, message } => format!("assert {} : {:?}", pure(cond), message),
        Instr::Throw { exception, message } => match message {
            Some(message) => format!("throw {}({:?})", program.name(*exception), message),
            None => format!("throw {}", program.name(*exception)),
        },
        Instr::EnterTry { handler, catches } => {
            let filter = match catches {
                CatchKinds::All => "*".to_string(),
                CatchKinds::Named(names) => names
                    .iter()
                    .map(|&name| program.name(name).to_string())
                    .collect::<Vec<_>>()
                    .join(", "),
            };
            format!("entertry handler={} catches=({})", handler, filter)
        }
        Instr::ExitTry => "exittry".to_string(),
        Instr::Print { value } => match value {
            Some(value) => format!("print {}", pure(value)),
            None => "print".to_string(),
        },
        Instr::Nop => "nop".to_string(),
    }
}

fn pure_to_string(proc: &crate::flat::ProcInfo, expr: &PureExpr) -> String {
    match expr {
        PureExpr::Const(constant) => constant.to_string(),
        PureExpr::Local(slot) => proc.local_names[slot.index()].to_string(),
        PureExpr::Unary { op, operand } => {
            format!("{}{}", op, pure_to_string(proc, operand))
        }
        PureExpr::Binary { op, lhs, rhs } => format!(
            "({} {} {})",
            pure_to_string(proc, lhs),
            op,
            pure_to_string(proc, rhs)
        ),
        PureExpr::Len(inner) => format!("len({})", pure_to_string(proc, inner)),
    }
}

/// Renders a whole program as annotated flat IR, one procedure per section.
pub fn disassemble(program: &Program) -> String {
    let mut out = String::new();
    for proc in &program.procs {
        let _ = writeln!(out, "proc {}:", program.name(proc.name));
        for index in proc.entry.index()..proc.end.index() {
            let id = InstrId(index as u32);
            let _ = writeln!(
                out,
                "  {:>4}: {:<50} ; {}",
                index,
                instr_to_string(program, id),
                program.span(id)
            );
        }
    }
    out
}

/// Describes an instruction for race reports: disassembly plus position.
pub fn describe_instr(program: &Program, id: InstrId) -> String {
    format!(
        "#{} `{}` at {}",
        id,
        instr_to_string(program, id),
        program.span(id)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;

    #[test]
    fn disassembly_covers_every_instruction() {
        let program = compile(
            r#"
            class Box { v }
            global g = 0;
            proc helper(x) { return x + 1; }
            proc main() {
                var b = new Box;
                var a = new [2];
                b.v = 1;
                a[0] = b.v;
                g = helper(a[0]);
                sync (b) { notify b; notifyall b; }
                var t = spawn helper(0);
                interrupt t;
                join t;
                sleep 1;
                try { throw Boom("x"); } catch (*) { print g; }
                assert g >= 0 : "non-negative";
                if (g == 1) { nop; } else { print; }
                while (false) { nop; }
                lock b; wait b; unlock b;
            }
            "#,
        )
        .unwrap();
        let text = disassemble(&program);
        for index in 0..program.instr_count() {
            assert!(text.contains(&format!("{:>4}: ", index)), "missing {index}");
        }
        // Spot-check a few renderings.
        assert!(text.contains("new Box"));
        assert!(text.contains("monitorenter"));
        assert!(text.contains("throw Boom"));
        assert!(text.contains("spawn helper"));
    }

    #[test]
    fn describe_instr_mentions_position() {
        let program = compile("global g;\nproc main() { g = 1; }").unwrap();
        let store = program.memory_access_instrs().next().unwrap();
        let described = describe_instr(&program, store);
        assert!(described.contains("g = 1"));
        assert!(described.contains("2:"), "line number present: {described}");
    }
}
