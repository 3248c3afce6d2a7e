//! A CIL collection library reproducing the JDK bugs of the paper's §5.3
//! (Table 1 rows 10–14).
//!
//! The paper's finding: `Collections.synchronizedList`/`synchronizedSet`
//! wrap every method of the underlying collection in a monitor on the
//! wrapper — **except** the ones inherited from `AbstractCollection`
//! (`containsAll`, `equals`, `addAll`), which iterate their *argument*
//! collection without holding its lock. A concurrent structural
//! modification of the argument then interferes with the iterator's
//! `modCount`/`size`/node reads, raising `ConcurrentModificationException`
//! or `NoSuchElementException`.
//!
//! This module implements the same structure in CIL:
//!
//! * array-backed lists (`al_*` — ArrayList), node-based lists (`ll_*` —
//!   LinkedList), bucket-of-chains sets (`hs_*` — HashSet), and
//!   sorted-array sets (`ts_*` — TreeSet, modelling the ordered iteration
//!   of a red-black tree with a sorted array), all unsynchronized;
//! * `Wrap`-object monitors (`s*_*` procedures) that lock the wrapper on
//!   every call — but `*_contains_all` locks only the receiver, exactly
//!   like the JDK decorator;
//! * `vec_*` — a JDK-1.1-style `Vector`, internally synchronized except
//!   for the historical unsynchronized `size()`/`isEmpty()` fast paths
//!   (real but benign races; the paper reports 9 real races and no
//!   exceptions for Vector).

use crate::{PaperRow, Workload};

/// The shared collection library (unsynchronized cores + synchronized
/// wrappers). Drivers are appended per benchmark.
const LIB: &str = r#"
    class Wrap { inner }
    class List { storage, size, modcount }
    class Node { value, next }
    class LList { head, size, modcount }
    class Set { buckets, nbuckets, size, modcount }

    proc wrap_new(inner) {
        var w = new Wrap;
        w.inner = inner;
        return w;
    }

    // ---------- array-backed list (ArrayList core) ----------

    proc al_new(cap) {
        var l = new List;
        l.storage = new [cap];
        l.size = 0;
        l.modcount = 0;
        return l;
    }

    proc al_add(l, v) {
        @al_add_size_read var n = l.size;
        @al_add_elem l.storage[n] = v;
        @al_add_size l.size = n + 1;
        @al_add_mod l.modcount = l.modcount + 1;
    }

    proc al_clear(l) {
        @al_clear_size l.size = 0;
        @al_clear_mod l.modcount = l.modcount + 1;
    }

    proc al_get(l, i) {
        var r = null;
        @al_get_size var n = l.size;
        if (i < n) { @al_get_elem r = l.storage[i]; }
        return r;
    }

    proc al_contains(l, v) {
        var i = 0;
        var found = false;
        @al_con_size var n = l.size;
        while (i < n) {
            @al_con_elem var c = l.storage[i];
            if (c == v) { found = true; }
            i = i + 1;
        }
        return found;
    }

    // AbstractCollection.containsAll: iterates l2 with a fail-fast
    // iterator. The caller is expected to hold l1's monitor only.
    proc al_contains_all(l1, l2) {
        @al_ca_mod var mc = l2.modcount;
        @al_ca_size var n = l2.size;
        var i = 0;
        while (i < n) {
            @al_ca_modcheck var mc2 = l2.modcount;
            if (mc2 != mc) { throw ConcurrentModificationException; }
            @al_ca_sizecheck var n2 = l2.size;
            if (i >= n2) { throw NoSuchElementException; }
            @al_ca_elem var v = l2.storage[i];
            var found = al_contains(l1, v);
            if (!found) { return false; }
            i = i + 1;
        }
        return true;
    }

    // AbstractList.equals: element-wise comparison through a fail-fast
    // iterator over l2 — same unlocked-argument bug as containsAll.
    proc al_equals(l1, l2) {
        @al_eq_size1 var n1 = l1.size;
        @al_eq_mod var mc = l2.modcount;
        @al_eq_size2 var n2 = l2.size;
        if (n1 != n2) { return false; }
        var i = 0;
        while (i < n1) {
            @al_eq_modcheck var mc2 = l2.modcount;
            if (mc2 != mc) { throw ConcurrentModificationException; }
            @al_eq_sizecheck var n3 = l2.size;
            if (i >= n3) { throw NoSuchElementException; }
            @al_eq_mine var a = l1.storage[i];
            @al_eq_theirs var b = l2.storage[i];
            if (a != b) { return false; }
            i = i + 1;
        }
        return true;
    }

    // Synchronized wrapper (Collections.synchronizedList).
    proc sal_add(w, v) { sync (w) { al_add(w.inner, v); } }
    proc sal_clear(w) { sync (w) { al_clear(w.inner); } }
    proc sal_get(w, i) {
        var r;
        sync (w) { r = al_get(w.inner, i); }
        return r;
    }
    // THE BUG: only w1 is locked; w2.inner is iterated bare.
    proc sal_contains_all(w1, w2) {
        var r;
        sync (w1) { r = al_contains_all(w1.inner, w2.inner); }
        return r;
    }
    proc sal_equals(w1, w2) {
        var r;
        sync (w1) { r = al_equals(w1.inner, w2.inner); }
        return r;
    }

    // ---------- node-based list (LinkedList core) ----------

    proc ll_new() {
        var l = new LList;
        l.head = null;
        l.size = 0;
        l.modcount = 0;
        return l;
    }

    proc ll_add_front(l, v) {
        var n = new Node;
        n.value = v;
        @ll_add_next n.next = l.head;
        @ll_add_head l.head = n;
        @ll_add_size l.size = l.size + 1;
        @ll_add_mod l.modcount = l.modcount + 1;
    }

    proc ll_clear(l) {
        @ll_clear_head l.head = null;
        @ll_clear_size l.size = 0;
        @ll_clear_mod l.modcount = l.modcount + 1;
    }

    proc ll_contains(l, v) {
        var found = false;
        var n = l.head;
        while (n != null) {
            var c = n.value;
            if (c == v) { found = true; }
            n = n.next;
        }
        return found;
    }

    proc ll_contains_all(l1, l2) {
        @ll_ca_mod var mc = l2.modcount;
        @ll_ca_size var sz = l2.size;
        @ll_ca_head var node = l2.head;
        var i = 0;
        while (i < sz) {
            @ll_ca_modcheck var mc2 = l2.modcount;
            if (mc2 != mc) { throw ConcurrentModificationException; }
            if (node == null) { throw NoSuchElementException; }
            @ll_ca_val var v = node.value;
            var found = ll_contains(l1, v);
            if (!found) { return false; }
            @ll_ca_next node = node.next;
            i = i + 1;
        }
        return true;
    }

    // AbstractList.equals over node chains.
    proc ll_equals(l1, l2) {
        @ll_eq_size1 var n1 = l1.size;
        @ll_eq_mod var mc = l2.modcount;
        @ll_eq_size2 var n2 = l2.size;
        if (n1 != n2) { return false; }
        @ll_eq_myhead var mine = l1.head;
        @ll_eq_head var theirs = l2.head;
        var i = 0;
        while (i < n1) {
            @ll_eq_modcheck var mc2 = l2.modcount;
            if (mc2 != mc) { throw ConcurrentModificationException; }
            if (theirs == null) { throw NoSuchElementException; }
            var a = mine.value;
            @ll_eq_val var b = theirs.value;
            if (a != b) { return false; }
            mine = mine.next;
            @ll_eq_next theirs = theirs.next;
            i = i + 1;
        }
        return true;
    }

    proc sll_add(w, v) { sync (w) { ll_add_front(w.inner, v); } }
    proc sll_clear(w) { sync (w) { ll_clear(w.inner); } }
    proc sll_contains_all(w1, w2) {
        var r;
        sync (w1) { r = ll_contains_all(w1.inner, w2.inner); }
        return r;
    }
    proc sll_equals(w1, w2) {
        var r;
        sync (w1) { r = ll_equals(w1.inner, w2.inner); }
        return r;
    }

    // ---------- hash set (bucket array of node chains) ----------

    proc hs_new(nbuckets) {
        var s = new Set;
        s.buckets = new [nbuckets];
        s.nbuckets = nbuckets;
        var i = 0;
        while (i < nbuckets) {
            var chain = ll_new();
            s.buckets[i] = chain;
            i = i + 1;
        }
        s.size = 0;
        s.modcount = 0;
        return s;
    }

    proc hs_contains(s, v) {
        @hs_con_nb var nb = s.nbuckets;
        var b = v % nb;
        @hs_con_bucket var chain = s.buckets[b];
        var r = ll_contains(chain, v);
        return r;
    }

    proc hs_add(s, v) {
        var present = hs_contains(s, v);
        if (!present) {
            @hs_add_nb var nb = s.nbuckets;
            var b = v % nb;
            @hs_add_bucket var chain = s.buckets[b];
            ll_add_front(chain, v);
            @hs_add_size s.size = s.size + 1;
            @hs_add_mod s.modcount = s.modcount + 1;
        }
    }

    proc hs_clear(s) {
        @hs_clear_nb var nb = s.nbuckets;
        var i = 0;
        while (i < nb) {
            @hs_clear_bucket var chain = s.buckets[i];
            ll_clear(chain);
            i = i + 1;
        }
        @hs_clear_size s.size = 0;
        @hs_clear_mod s.modcount = s.modcount + 1;
    }

    // HashSet iterator: size-driven, like java.util.HashMap.HashIterator —
    // runs out of buckets when the set shrinks mid-iteration (NSEE) and
    // fail-fasts on modCount (CME).
    proc hs_contains_all(s1, s2) {
        @hs_ca_mod var mc = s2.modcount;
        @hs_ca_size var remaining = s2.size;
        @hs_ca_nb var nb = s2.nbuckets;
        var b = 0;
        var node = null;
        while (remaining > 0) {
            @hs_ca_modcheck var mc2 = s2.modcount;
            if (mc2 != mc) { throw ConcurrentModificationException; }
            while (node == null) {
                if (b >= nb) { throw NoSuchElementException; }
                @hs_ca_bucket var chain = s2.buckets[b];
                @hs_ca_head node = chain.head;
                b = b + 1;
            }
            @hs_ca_val var v = node.value;
            var found = hs_contains(s1, v);
            if (!found) { return false; }
            @hs_ca_next node = node.next;
            remaining = remaining - 1;
        }
        return true;
    }

    // AbstractCollection.addAll: iterates s2 bare while inserting into s1.
    proc hs_add_all(s1, s2) {
        @hs_aa_mod var mc = s2.modcount;
        @hs_aa_size var remaining = s2.size;
        @hs_aa_nb var nb = s2.nbuckets;
        var b = 0;
        var node = null;
        while (remaining > 0) {
            @hs_aa_modcheck var mc2 = s2.modcount;
            if (mc2 != mc) { throw ConcurrentModificationException; }
            while (node == null) {
                if (b >= nb) { throw NoSuchElementException; }
                @hs_aa_bucket var chain = s2.buckets[b];
                @hs_aa_head node = chain.head;
                b = b + 1;
            }
            @hs_aa_val var v = node.value;
            hs_add(s1, v);
            @hs_aa_next node = node.next;
            remaining = remaining - 1;
        }
    }

    proc shs_add(w, v) { sync (w) { hs_add(w.inner, v); } }
    proc shs_clear(w) { sync (w) { hs_clear(w.inner); } }
    proc shs_contains_all(w1, w2) {
        var r;
        sync (w1) { r = hs_contains_all(w1.inner, w2.inner); }
        return r;
    }
    proc shs_add_all(w1, w2) {
        sync (w1) { hs_add_all(w1.inner, w2.inner); }
    }

    // ---------- tree set (sorted array models ordered iteration) ----------

    proc ts_new(cap) {
        var l = al_new(cap);
        return l;
    }

    proc ts_insert_pos(l, v) {
        @ts_pos_size var n = l.size;
        var i = 0;
        var pos = n;
        var looking = true;
        while (looking) {
            if (i >= n) { looking = false; }
            else {
                @ts_pos_elem var c = l.storage[i];
                if (c >= v) { pos = i; looking = false; }
                i = i + 1;
            }
        }
        return pos;
    }

    proc ts_add(l, v) {
        var pos = ts_insert_pos(l, v);
        @ts_add_size_read var n = l.size;
        var j = n;
        while (j > pos) {
            @ts_shift_read var moved = l.storage[j - 1];
            @ts_shift_write l.storage[j] = moved;
            j = j - 1;
        }
        @ts_add_elem l.storage[pos] = v;
        @ts_add_size l.size = n + 1;
        @ts_add_mod l.modcount = l.modcount + 1;
    }

    proc ts_clear(l) {
        @ts_clear_size l.size = 0;
        @ts_clear_mod l.modcount = l.modcount + 1;
    }

    proc ts_contains(l, v) {
        var r = al_contains(l, v);
        return r;
    }

    proc ts_contains_all(l1, l2) {
        @ts_ca_mod var mc = l2.modcount;
        @ts_ca_size var n = l2.size;
        var i = 0;
        while (i < n) {
            @ts_ca_modcheck var mc2 = l2.modcount;
            if (mc2 != mc) { throw ConcurrentModificationException; }
            @ts_ca_sizecheck var n2 = l2.size;
            if (i >= n2) { throw NoSuchElementException; }
            @ts_ca_elem var v = l2.storage[i];
            var found = ts_contains(l1, v);
            if (!found) { return false; }
            i = i + 1;
        }
        return true;
    }

    // AbstractCollection.addAll over the sorted array.
    proc ts_add_all(l1, l2) {
        @ts_aa_mod var mc = l2.modcount;
        @ts_aa_size var n = l2.size;
        var i = 0;
        while (i < n) {
            @ts_aa_modcheck var mc2 = l2.modcount;
            if (mc2 != mc) { throw ConcurrentModificationException; }
            @ts_aa_sizecheck var n2 = l2.size;
            if (i >= n2) { throw NoSuchElementException; }
            @ts_aa_elem var v = l2.storage[i];
            ts_add(l1, v);
            i = i + 1;
        }
    }

    proc sts_add(w, v) { sync (w) { ts_add(w.inner, v); } }
    proc sts_clear(w) { sync (w) { ts_clear(w.inner); } }
    proc sts_contains_all(w1, w2) {
        var r;
        sync (w1) { r = ts_contains_all(w1.inner, w2.inner); }
        return r;
    }
    proc sts_add_all(w1, w2) {
        sync (w1) { ts_add_all(w1.inner, w2.inner); }
    }

    // ---------- Vector (JDK 1.1 style: internally synchronized) ----------

    proc vec_add(l, v) {
        sync (l) {
            var n = l.size;
            l.storage[n] = v;
            l.size = n + 1;
            l.modcount = l.modcount + 1;
        }
    }

    proc vec_remove_last(l) {
        sync (l) {
            var n = l.size;
            if (n > 0) { l.size = n - 1; l.modcount = l.modcount + 1; }
        }
    }

    proc vec_get(l, i) {
        var r = null;
        sync (l) {
            var n = l.size;
            if (i < n) { r = l.storage[i]; }
        }
        return r;
    }

    // The historically unsynchronized fast paths: real, benign races.
    proc vec_size(l) {
        @vec_size_read var n = l.size;
        return n;
    }

    proc vec_is_empty(l) {
        @vec_empty_read var n = l.size;
        return n == 0;
    }

    proc vec_last_index(l) {
        @vec_last_read var n = l.size;
        return n - 1;
    }

    proc vec_has_room(l, cap) {
        @vec_room_read var n = l.size;
        return n < cap;
    }

    proc vec_mod_count(l) {
        @vec_mod_read var m = l.modcount;
        return m;
    }
"#;

fn full_source(driver: &str) -> String {
    format!("{LIB}\n{driver}")
}

fn compile_with_driver(driver: &str) -> cil::Program {
    cil::compile(&full_source(driver)).expect("collections workload compiles")
}

/// `Vector` (JDK 1.1): every mutator holds the vector's monitor, but the
/// `size()`/`isEmpty()` fast paths read `size` bare. All predicted races
/// are real and none can raise an exception — matching the paper's row
/// (9 potential, 9 real, 0 exceptions).
pub fn vector() -> Workload {
    let driver = r#"
        global vec;

        proc vec_mutator() {
            vec_add(vec, 1);
            vec_add(vec, 2);
            vec_remove_last(vec);
            vec_add(vec, 3);
        }

        proc vec_reader() {
            var n = vec_size(vec);
            var e = vec_is_empty(vec);
            var v = vec_get(vec, 0);
            var last = vec_last_index(vec);
            var room = vec_has_room(vec, 8);
            var mods = vec_mod_count(vec);
            var n2 = vec_size(vec);
        }

        proc main() {
            vec = al_new(8);
            var t1 = spawn vec_mutator();
            var t2 = spawn vec_reader();
            join t1;
            join t2;
        }
    "#;
    Workload {
        name: "Vector 1.1",
        description: "JDK 1.1 Vector: synchronized mutators, unsynchronized \
                      size()/isEmpty() fast paths (real benign races)",
        program: compile_with_driver(driver),
        source: full_source(driver),
        entry: "main",
        paper: PaperRow {
            sloc: 709,
            hybrid_races: 9,
            real_races: 9,
            known_races: Some(9),
            rf_exceptions: 0,
            simple_exceptions: 0,
            probability: Some(0.94),
        },
    }
}

/// `LinkedList` under `Collections.synchronizedList`: `containsAll`
/// iterates the argument's node chain without its lock while another
/// thread clears/extends it → `ConcurrentModificationException` /
/// `NoSuchElementException` (paper §5.3).
pub fn linked_list() -> Workload {
    let driver = r#"
        global w1;
        global w2;
        global w3;

        proc ll_iterating_thread() {
            var r = sll_contains_all(w1, w2);
        }

        proc ll_equals_thread() {
            // w3 mirrors w2's initial contents, so equals really iterates.
            var r = sll_equals(w3, w2);
        }

        proc ll_mutating_thread() {
            sll_clear(w2);
            sll_add(w2, 5);
        }

        proc main() {
            var l1 = ll_new();
            var l2 = ll_new();
            var l3 = ll_new();
            w1 = wrap_new(l1);
            w2 = wrap_new(l2);
            w3 = wrap_new(l3);
            sll_add(w1, 1);
            sll_add(w1, 2);
            sll_add(w1, 5);
            sll_add(w2, 1);
            sll_add(w2, 2);
            sll_add(w3, 1);
            sll_add(w3, 2);
            var t1 = spawn ll_iterating_thread();
            var t2 = spawn ll_mutating_thread();
            var t3 = spawn ll_equals_thread();
            join t1;
            join t2;
            join t3;
        }
    "#;
    Workload {
        name: "LinkedList",
        description: "synchronized LinkedList: containsAll iterates the \
                      argument unlocked → CME / NoSuchElementException",
        program: compile_with_driver(driver),
        source: full_source(driver),
        entry: "main",
        paper: PaperRow {
            sloc: 5_979,
            hybrid_races: 12,
            real_races: 12,
            known_races: None,
            rf_exceptions: 5,
            simple_exceptions: 0,
            probability: Some(0.85),
        },
    }
}

/// `ArrayList` under `Collections.synchronizedList`: same decorator bug
/// over the array-backed core.
pub fn array_list() -> Workload {
    let driver = r#"
        global w1;
        global w2;
        global w3;

        proc al_iterating_thread() {
            var r = sal_contains_all(w1, w2);
        }

        proc al_equals_thread() {
            var r = sal_equals(w3, w2);
        }

        proc al_mutating_thread() {
            sal_clear(w2);
            sal_add(w2, 9);
        }

        proc main() {
            var l1 = al_new(8);
            var l2 = al_new(8);
            var l3 = al_new(8);
            w1 = wrap_new(l1);
            w2 = wrap_new(l2);
            w3 = wrap_new(l3);
            sal_add(w1, 1);
            sal_add(w1, 2);
            sal_add(w1, 9);
            sal_add(w2, 1);
            sal_add(w2, 2);
            sal_add(w3, 1);
            sal_add(w3, 2);
            var t1 = spawn al_iterating_thread();
            var t2 = spawn al_mutating_thread();
            var t3 = spawn al_equals_thread();
            join t1;
            join t2;
            join t3;
        }
    "#;
    Workload {
        name: "ArrayList",
        description: "synchronized ArrayList: containsAll iterates the \
                      argument unlocked → CME / NoSuchElementException",
        program: compile_with_driver(driver),
        source: full_source(driver),
        entry: "main",
        paper: PaperRow {
            sloc: 5_866,
            hybrid_races: 14,
            real_races: 7,
            known_races: None,
            rf_exceptions: 7,
            simple_exceptions: 0,
            probability: Some(0.55),
        },
    }
}

/// `HashSet` under `Collections.synchronizedSet`: the size-driven bucket
/// iterator runs out of chains when the set shrinks mid-iteration.
pub fn hash_set() -> Workload {
    let driver = r#"
        global w1;
        global w2;

        proc hs_iterating_thread() {
            var r = shs_contains_all(w1, w2);
        }

        proc hs_add_all_thread() {
            shs_add_all(w1, w2);
        }

        proc hs_mutating_thread() {
            shs_clear(w2);
            shs_add(w2, 6);
        }

        proc main() {
            var s1 = hs_new(2);
            var s2 = hs_new(2);
            w1 = wrap_new(s1);
            w2 = wrap_new(s2);
            shs_add(w1, 1);
            shs_add(w1, 2);
            shs_add(w1, 6);
            shs_add(w2, 1);
            shs_add(w2, 2);
            var t1 = spawn hs_iterating_thread();
            var t2 = spawn hs_mutating_thread();
            var t3 = spawn hs_add_all_thread();
            join t1;
            join t2;
            join t3;
        }
    "#;
    Workload {
        name: "HashSet",
        description: "synchronized HashSet: size-driven bucket iterator vs \
                      concurrent clear/add → CME / NoSuchElementException",
        program: compile_with_driver(driver),
        source: full_source(driver),
        entry: "main",
        paper: PaperRow {
            sloc: 7_086,
            hybrid_races: 11,
            real_races: 11,
            known_races: None,
            rf_exceptions: 8,
            simple_exceptions: 1,
            probability: Some(0.54),
        },
    }
}

/// `TreeSet` under `Collections.synchronizedSet`: ordered iteration
/// modelled over a sorted array; the insertion shift makes mid-iteration
/// interference more intricate (the paper reports TreeSet's lowest hit
/// probability, 0.41).
pub fn tree_set() -> Workload {
    let driver = r#"
        global w1;
        global w2;

        proc ts_iterating_thread() {
            var r = sts_contains_all(w1, w2);
        }

        proc ts_add_all_thread() {
            sts_add_all(w1, w2);
        }

        proc ts_mutating_thread() {
            sts_add(w2, 0);
            sts_clear(w2);
        }

        proc main() {
            var s1 = ts_new(8);
            var s2 = ts_new(8);
            w1 = wrap_new(s1);
            w2 = wrap_new(s2);
            sts_add(w1, 1);
            sts_add(w1, 2);
            sts_add(w1, 0);
            sts_add(w2, 2);
            sts_add(w2, 1);
            var t1 = spawn ts_iterating_thread();
            var t2 = spawn ts_mutating_thread();
            var t3 = spawn ts_add_all_thread();
            join t1;
            join t2;
            join t3;
        }
    "#;
    Workload {
        name: "TreeSet",
        description: "synchronized TreeSet (sorted-array model): ordered \
                      iteration vs concurrent add/clear → CME / NSEE",
        program: compile_with_driver(driver),
        source: full_source(driver),
        entry: "main",
        paper: PaperRow {
            sloc: 7_532,
            hybrid_races: 13,
            real_races: 8,
            known_races: None,
            rf_exceptions: 8,
            simple_exceptions: 1,
            probability: Some(0.41),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use interp::{run_with, Limits, NullObserver, RunToBlockScheduler, Termination};

    #[test]
    fn collection_drivers_run_clean_sequentially() {
        // Under run-to-block scheduling each driver thread runs to
        // completion in turn, so the single-threaded semantics of the
        // library (the developers' mental model!) must hold: no exceptions.
        for workload in [
            vector(),
            linked_list(),
            array_list(),
            hash_set(),
            tree_set(),
        ] {
            let outcome = run_with(
                &workload.program,
                workload.entry,
                &mut RunToBlockScheduler::new(),
                &mut NullObserver,
                Limits::default(),
            )
            .unwrap();
            assert_eq!(
                outcome.termination,
                Termination::AllExited,
                "{}",
                workload.name
            );
            assert!(
                outcome.uncaught.is_empty(),
                "{}: single-threaded-order run must not throw: {:?}",
                workload.name,
                outcome.uncaught
            );
        }
    }

    #[test]
    fn library_operations_behave_single_threaded() {
        let program = compile_with_driver(
            r#"
            proc main() {
                var l = al_new(4);
                al_add(l, 10);
                al_add(l, 20);
                var a = al_get(l, 0);
                var b = al_get(l, 1);
                print a;
                print b;
                var c = al_contains(l, 20);
                assert c : "contains added element";
                var d = al_contains(l, 99);
                assert !d : "does not contain absent element";

                var ll = ll_new();
                ll_add_front(ll, 1);
                ll_add_front(ll, 2);
                var e = ll_contains(ll, 1);
                assert e : "linked list contains 1";
                ll_clear(ll);
                var f = ll_contains(ll, 1);
                assert !f : "cleared list is empty";

                var s = hs_new(2);
                hs_add(s, 3);
                hs_add(s, 4);
                hs_add(s, 3);
                var g = s.size;
                assert g == 2 : "set deduplicates";
                var h = hs_contains(s, 4);
                assert h : "set contains 4";

                var t = ts_new(8);
                ts_add(t, 5);
                ts_add(t, 1);
                ts_add(t, 3);
                var v0 = t.storage[0];
                var v1 = t.storage[1];
                var v2 = t.storage[2];
                assert v0 == 1 : "sorted order 0";
                assert v1 == 3 : "sorted order 1";
                assert v2 == 5 : "sorted order 2";
            }
            "#,
        );
        let outcome = run_with(
            &program,
            "main",
            &mut RunToBlockScheduler::new(),
            &mut NullObserver,
            Limits::default(),
        )
        .unwrap();
        assert!(
            outcome.uncaught.is_empty(),
            "library self-test: {:?} / output {:?}",
            outcome.uncaught,
            outcome.output
        );
        assert_eq!(outcome.output, vec!["10", "20"]);
    }

    #[test]
    fn contains_all_true_and_false_cases() {
        let program = compile_with_driver(
            r#"
            proc main() {
                var l1 = al_new(8);
                var l2 = al_new(8);
                al_add(l1, 1);
                al_add(l1, 2);
                al_add(l1, 3);
                al_add(l2, 1);
                al_add(l2, 3);
                var yes = al_contains_all(l1, l2);
                assert yes : "superset containsAll";
                al_add(l2, 9);
                var no = al_contains_all(l1, l2);
                assert !no : "missing element";
            }
            "#,
        );
        let outcome = run_with(
            &program,
            "main",
            &mut RunToBlockScheduler::new(),
            &mut NullObserver,
            Limits::default(),
        )
        .unwrap();
        assert!(outcome.uncaught.is_empty(), "{:?}", outcome.uncaught);
    }
}
