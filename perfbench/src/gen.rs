//! Seeded program generator and its independent oracle.
//!
//! Every generated program is one kernel template (with seed-drawn
//! parameters and renamed identifiers) plus seeded filler definitions that
//! put it in a size class.  Each template and filler carries a Rust
//! reference that computes the program's value for the drawn parameters;
//! the expected value never comes from `sxr`.

use std::fmt::Write as _;

/// SplitMix64: small, seedable, and independent of the system under test.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one `(seed, stream)` pair; distinct streams of one
    /// seed are independent, so op `i`'s input does not depend on how many
    /// ops ran before it.
    pub fn stream(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        debug_assert!(lo <= hi);
        lo + (self.next_u64() % (hi - lo + 1) as u64) as i64
    }

    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.range(0, xs.len() as i64 - 1) as usize]
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.range(0, i as i64) as usize;
            xs.swap(i, j);
        }
    }
}

/// FNV-1a over a byte stream (the printed input hash).
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn add(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn add_program(&mut self, p: &Program) {
        self.add(p.source.as_bytes());
        self.add(&[0]);
        self.add(p.expect.as_bytes());
        self.add(&[0]);
    }
}

/// The kernel templates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Family {
    Fib,
    Tak,
    Sieve,
    Vsum,
    Strhash,
    Assq,
    Nrev,
    Deriv,
    Queens,
    BinaryTrees,
}

impl Family {
    pub const ALL: [Family; 10] = [
        Family::Fib,
        Family::Tak,
        Family::Sieve,
        Family::Vsum,
        Family::Strhash,
        Family::Assq,
        Family::Nrev,
        Family::Deriv,
        Family::Queens,
        Family::BinaryTrees,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Family::Fib => "fib",
            Family::Tak => "tak",
            Family::Sieve => "sieve",
            Family::Vsum => "vsum",
            Family::Strhash => "strhash",
            Family::Assq => "assq",
            Family::Nrev => "nrev",
            Family::Deriv => "deriv",
            Family::Queens => "queens",
            Family::BinaryTrees => "binary-trees",
        }
    }

    /// True for the kernels whose timed loop allocates while a live set
    /// persists (the only ones where the collector and heap growth run).
    /// The others read data built once before their loop.
    pub fn allocates(self) -> bool {
        matches!(
            self,
            Family::Nrev | Family::Deriv | Family::Queens | Family::BinaryTrees
        )
    }
}

/// How many filler definitions a program carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SizeClass {
    None,
    Small,
    Medium,
    Large,
    Xl,
}

impl SizeClass {
    pub const ALL: [SizeClass; 5] = [
        SizeClass::None,
        SizeClass::Small,
        SizeClass::Medium,
        SizeClass::Large,
        SizeClass::Xl,
    ];

    pub fn fillers(self) -> usize {
        match self {
            SizeClass::None => 0,
            SizeClass::Small => 20,
            SizeClass::Medium => 100,
            SizeClass::Large => 300,
            SizeClass::Xl => 1000,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            SizeClass::None => "none",
            SizeClass::Small => "small",
            SizeClass::Medium => "medium",
            SizeClass::Large => "large",
            SizeClass::Xl => "xl",
        }
    }
}

/// One deck of size classes: most programs are small, with a tail of large
/// ones.  The two `Xl` entries (10%) put the 95th percentile inside the
/// largest class instead of on a class boundary, and the 8 + 5 small ones
/// put the median inside `Small`; both percentiles then depend on the
/// classes' costs, not on which seed drew which class.
pub const DECK: [(SizeClass, usize); 5] = [
    (SizeClass::None, 8),
    (SizeClass::Small, 5),
    (SizeClass::Medium, 3),
    (SizeClass::Large, 2),
    (SizeClass::Xl, 2),
];

pub fn deck_len() -> usize {
    DECK.iter().map(|(_, n)| n).sum()
}

/// The size class of program `i` of a seeded stream: every run of
/// [`deck_len`] programs holds each class in [`DECK`]'s proportion, in a
/// seeded order.
pub fn class_of(seed: u64, i: usize) -> SizeClass {
    let mut deck: Vec<SizeClass> = DECK
        .iter()
        .flat_map(|(c, n)| std::iter::repeat_n(*c, *n))
        .collect();
    let cycle = (i / deck.len()) as u64;
    Rng::stream(seed, 0xDEC0_0000 ^ cycle).shuffle(&mut deck);
    deck[i % deck.len()]
}

/// How long a kernel's timed part runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// A short run (well under a millisecond): compile or load dominates.
    Short,
    /// A long run (tens of milliseconds): the dispatch loop dominates.
    Long,
}

/// A generated program with its expected value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    pub source: String,
    /// The program's value as `Machine::describe` renders a fixnum.
    pub expect: String,
    pub family: Family,
    pub class: SizeClass,
}

/// Seeded identifier renaming: every template identifier gets a fresh,
/// program-unique spelling.
struct Namer {
    rng: Rng,
    used: std::collections::HashSet<String>,
}

const SYLLABLES: [&str; 16] = [
    "ka", "zo", "ri", "mu", "te", "lo", "pa", "ne", "si", "vu", "do", "ga", "he", "bi", "ju", "wy",
];

impl Namer {
    fn name(&mut self, base: &str) -> String {
        loop {
            let mut s = base.to_string();
            s.push('-');
            for _ in 0..3 {
                let syllable = *self.rng.pick(&SYLLABLES);
                s.push_str(syllable);
            }
            if self.used.insert(s.clone()) {
                return s;
            }
        }
    }
}

/// A kernel instance: definitions, an expression evaluated `reps` times and
/// summed, one extra expression added once, and the reference values of
/// both.
struct Kernel {
    defs: String,
    call: String,
    call_value: i64,
    tail: String,
    tail_value: i64,
    /// Work of one `call`, in the family's own unit (sizes `reps`).
    units: f64,
}

/// What one work unit costs, per family, in instructions weighted by the
/// family's relative time per instruction (its dispatch mix).  Measured
/// once on the abstract-optimized pipeline and used only to size `reps`,
/// never to check a result: with it every family's `Scale::Long` op takes
/// about the same time, so the op-time distribution is one cluster and its
/// median does not fall between two families.
fn cost_per_unit(f: Family) -> f64 {
    // (instructions per unit, relative time per instruction)
    let (insts, speed) = match f {
        Family::Fib => (5.7, 1.21),
        Family::Tak => (7.8, 1.00),
        Family::Sieve => (27.0, 0.91),
        Family::Vsum => (6.1, 1.08),
        Family::Strhash => (12.1, 0.77),
        Family::Assq => (8.3, 0.91),
        Family::Nrev => (12.1, 1.14),
        Family::Deriv => (8.3, 0.99),
        Family::Queens => (18.1, 0.91),
        Family::BinaryTrees => (16.8, 1.10),
    };
    insts * speed
}

/// Weighted cost of a `Scale::Long` kernel op (about 2.5 M instructions),
/// whatever its drawn parameters: the parameters change the kernel's shape,
/// `reps` keeps its cost near this target.
pub const LONG_TARGET_COST: f64 = 2_500_000.0;

/// The most one kernel call may cost at `scale`.
fn call_budget(scale: Scale) -> f64 {
    match scale {
        Scale::Short => 20_000.0,
        // At least eight calls per op, so rounding `reps` misses the
        // target by at most 1/16.
        Scale::Long => LONG_TARGET_COST / 8.0,
    }
}

/// Generates one program of `family` at `scale`, with `class`'s number of
/// filler definitions.
pub fn generate(rng: &mut Rng, family: Family, class: SizeClass, scale: Scale) -> Program {
    let mut names = Namer {
        rng: Rng::stream(rng.next_u64(), 1),
        used: Default::default(),
    };
    // Redraw parameters whose single call would exceed the scale's budget
    // (tak's cost, for one, explodes on some argument triples).
    let k = loop {
        let k = kernel(rng, &mut names, family, scale);
        if k.units * cost_per_unit(family) <= call_budget(scale) {
            break k;
        }
    };
    let reps = match scale {
        Scale::Short => rng.range(1, 3),
        Scale::Long => (LONG_TARGET_COST / (k.units * cost_per_unit(family))).round() as i64,
    };
    let fillers = fillers(rng, &mut names, class.fillers());
    let (check_def, check_call, check_value) = checksum(rng, &mut names, &fillers);

    let mut src = String::new();
    // Fillers first, then the kernel: the kernel's definitions sit after a
    // prefix whose size the class sets.
    for f in &fillers {
        src.push_str(&f.source);
        src.push('\n');
    }
    src.push_str(&check_def);
    src.push_str(&k.defs);
    let run = names.name("run");
    let lp = names.name("loop");
    let _ = writeln!(
        src,
        "(define ({run}) (let {lp} ((k {reps}) (acc 0)) (if (fx= k 0) acc ({lp} (fx- k 1) (fx+ acc {})))))",
        k.call
    );
    let _ = writeln!(src, "(fx+ (fx+ ({run}) {}) {check_call})", k.tail);
    let expect = reps * k.call_value + k.tail_value + check_value;
    Program {
        source: src,
        expect: expect.to_string(),
        family,
        class,
    }
}

fn kernel(rng: &mut Rng, nm: &mut Namer, family: Family, scale: Scale) -> Kernel {
    let long = scale == Scale::Long;
    let mut k = Kernel {
        defs: String::new(),
        call: String::new(),
        call_value: 0,
        tail: "0".into(),
        tail_value: 0,
        units: 1.0,
    };
    match family {
        Family::Fib => {
            let n = if long {
                rng.range(16, 21)
            } else {
                rng.range(8, 13)
            };
            let fib = nm.name("fib");
            k.defs = format!(
                "(define ({fib} n) (if (fx< n 2) n (fx+ ({fib} (fx- n 1)) ({fib} (fx- n 2)))))\n"
            );
            k.call = format!("({fib} {n})");
            k.call_value = fib_ref(n);
            k.units = (2 * fib_ref(n + 1) - 1) as f64;
        }
        Family::Tak => {
            let x = if long {
                rng.range(12, 18)
            } else {
                rng.range(6, 9)
            };
            let y = x - rng.range(3, 6);
            let z = rng.range(0, y.max(1) - 1);
            let tak = nm.name("tak");
            k.defs = format!(
                "(define ({tak} x y z) (if (not (fx< y x)) z ({tak} ({tak} (fx- x 1) y z) ({tak} (fx- y 1) z x) ({tak} (fx- z 1) x y))))\n"
            );
            k.call = format!("({tak} {x} {y} {z})");
            let mut calls = 0u64;
            k.call_value = tak_ref(x, y, z, &mut calls);
            k.units = calls as f64;
        }
        Family::Sieve => {
            let n = if long {
                rng.range(500, 3000)
            } else {
                rng.range(100, 400)
            };
            let flags = nm.name("flags");
            let sieve = nm.name("sieve");
            let lp = nm.name("scan");
            let mark = nm.name("mark");
            k.defs = format!(
                "(define {flags} (make-vector {n} #t))\n\
                 (define ({sieve})\n  (vector-fill! {flags} #t)\n  (let {lp} ((i 2) (count 0))\n    \
                 (cond ((fx= i {n}) count)\n          ((vector-ref {flags} i)\n           \
                 (begin (let {mark} ((j (fx* i i))) (when (fx< j {n}) (vector-set! {flags} j #f) ({mark} (fx+ j i))))\n                  \
                 ({lp} (fx+ i 1) (fx+ count 1))))\n          (else ({lp} (fx+ i 1) count)))))\n"
            );
            k.call = format!("({sieve})");
            k.call_value = primes_below(n);
            k.units = n as f64;
        }
        Family::Vsum => {
            let n = if long {
                rng.range(500, 3000)
            } else {
                rng.range(100, 400)
            };
            let v = nm.name("vec");
            let vsum = nm.name("vsum");
            let lp = nm.name("walk");
            k.defs = format!(
                "(define {v} (list->vector (iota {n})))\n\
                 (define ({vsum}) (let {lp} ((i 0) (sum 0)) (if (fx= i {n}) sum ({lp} (fx+ i 1) (fx+ sum (vector-ref {v} i))))))\n"
            );
            k.call = format!("({vsum})");
            k.call_value = n * (n - 1) / 2;
            k.units = n as f64;
        }
        Family::Strhash => {
            let len = if long {
                rng.range(40, 120)
            } else {
                rng.range(10, 40)
            };
            const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz    ";
            let s: String = (0..len).map(|_| char::from(*rng.pick(ALPHABET))).collect();
            let name = nm.name("text");
            let hash = nm.name("strhash");
            k.defs = format!("(define {name} \"{s}\")\n(define ({hash}) (string-hash {name}))\n");
            k.call = format!("({hash})");
            k.call_value = string_hash_ref(&s);
            k.units = len as f64;
        }
        Family::Assq => {
            let m = if long {
                rng.range(16, 96)
            } else {
                rng.range(8, 24)
            };
            let table = nm.name("table");
            let sum = nm.name("assq-sum");
            let lp = nm.name("probe");
            k.defs = format!(
                "(define {table} (map (lambda (i) (cons i (fx* i i))) (iota {m})))\n\
                 (define ({sum}) (let {lp} ((k 0) (sum 0)) (if (fx= k {m}) sum ({lp} (fx+ k 1) (fx+ sum (cdr (assq k {table})))))))\n"
            );
            k.call = format!("({sum})");
            k.call_value = (0..m).map(|i| i * i).sum();
            k.units = (m * (m + 1) / 2) as f64;
        }
        Family::Nrev => {
            let n = if long {
                rng.range(100, 600)
            } else {
                rng.range(20, 100)
            };
            let base = nm.name("base");
            let nrev = nm.name("nrev");
            k.defs = format!(
                "(define {base} (iota {n}))\n\
                 (define ({nrev}) (let ((r (reverse {base}))) (fx+ (length r) (car r))))\n"
            );
            k.call = format!("({nrev})");
            k.call_value = 2 * n - 1;
            k.units = n as f64;
        }
        Family::Deriv => {
            let depth = if long {
                rng.range(3, 5)
            } else {
                rng.range(2, 3)
            };
            let e = DExpr::random(rng, depth);
            let deriv = nm.name("deriv");
            let size = nm.name("tree-size");
            let expr = nm.name("expr");
            let run = nm.name("deriv-run");
            k.defs = format!(
                "(define ({deriv} e x)\n  (cond ((symbol? e) (if (eq? e x) 1 0))\n        ((fixnum? e) 0)\n        \
                 ((eq? (car e) '+) (list3 '+ ({deriv} (cadr e) x) ({deriv} (caddr e) x)))\n        \
                 ((eq? (car e) '*) (list3 '+ (list3 '* (cadr e) ({deriv} (caddr e) x)) (list3 '* (caddr e) ({deriv} (cadr e) x))))\n        \
                 (else (error 'deriv))))\n\
                 (define ({size} e) (if (pair? e) (fx+ 1 (fx+ ({size} (car e)) ({size} (cdr e)))) 1))\n\
                 (define {expr} '{})\n\
                 (define ({run}) ({size} ({deriv} {expr} 'x)))\n",
                e.render()
            );
            k.call = format!("({run})");
            let d = e.deriv();
            k.call_value = d.size();
            k.units = (e.size() + d.size()) as f64;
        }
        Family::Queens => {
            let n = if long {
                rng.range(6, 8)
            } else {
                rng.range(4, 6)
            };
            let ok = nm.name("ok?");
            let try_ = nm.name("try");
            let queens = nm.name("queens");
            k.defs = format!(
                "(define ({ok} row dist placed)\n  (if (null? placed) #t\n      \
                 (and (not (fx= (car placed) (fx+ row dist))) (not (fx= (car placed) (fx- row dist))) ({ok} row (fx+ dist 1) (cdr placed)))))\n\
                 (define ({try_} x y z)\n  (if (null? x) (if (null? y) 1 0)\n      \
                 (fx+ (if ({ok} (car x) 1 z) ({try_} (append (cdr x) y) '() (cons (car x) z)) 0)\n           \
                 ({try_} (cdr x) (cons (car x) y) z))))\n\
                 (define ({queens} n) ({try_} (iota n) '() '()))\n"
            );
            k.call = format!("({queens} {n})");
            let mut calls = 0u64;
            k.call_value = queens_ref(n, &mut calls);
            k.units = calls as f64;
        }
        Family::BinaryTrees => {
            let (long_depth, depth) = if long {
                (rng.range(8, 11), rng.range(4, 9))
            } else {
                (rng.range(3, 5), rng.range(2, 5))
            };
            let make = nm.name("make-tree");
            let check = nm.name("check-tree");
            let keep = nm.name("long-lived");
            k.defs = format!(
                "(define ({make} d) (if (fx= d 0) (cons '() '()) (cons ({make} (fx- d 1)) ({make} (fx- d 1)))))\n\
                 (define ({check} t) (if (null? (car t)) 1 (fx+ 1 (fx+ ({check} (car t)) ({check} (cdr t))))))\n\
                 (define {keep} ({make} {long_depth}))\n"
            );
            k.call = format!("({check} ({make} {depth}))");
            k.call_value = (1 << (depth + 1)) - 1;
            k.tail = format!("({check} {keep})");
            k.tail_value = (1 << (long_depth + 1)) - 1;
            k.units = k.call_value as f64;
        }
    }
    k
}

// ---------------------------------------------------------------------------
// Reference implementations (the oracle)
// ---------------------------------------------------------------------------

pub fn fib_ref(n: i64) -> i64 {
    let (mut a, mut b) = (0i64, 1i64);
    for _ in 0..n {
        (a, b) = (b, a + b);
    }
    a
}

pub fn tak_ref(x: i64, y: i64, z: i64, calls: &mut u64) -> i64 {
    *calls += 1;
    if y >= x {
        z
    } else {
        let a = tak_ref(x - 1, y, z, calls);
        let b = tak_ref(y - 1, z, x, calls);
        let c = tak_ref(z - 1, x, y, calls);
        tak_ref(a, b, c, calls)
    }
}

pub fn primes_below(n: i64) -> i64 {
    let n = n as usize;
    let mut composite = vec![false; n];
    let mut count = 0;
    for i in 2..n {
        if !composite[i] {
            count += 1;
            let mut j = i * i;
            while j < n {
                composite[j] = true;
                j += i;
            }
        }
    }
    count
}

/// The library's `string-hash` (a polynomial hash modulo 16777213).
pub fn string_hash_ref(s: &str) -> i64 {
    s.bytes()
        .fold(0i64, |h, c| (h * 31 + i64::from(c)) % 16_777_213)
}

/// Counts the solutions the template's list-based search finds (the same
/// search, so `calls` measures the template's work).
pub fn queens_ref(n: i64, calls: &mut u64) -> i64 {
    fn ok(row: i64, dist: i64, placed: &[i64], calls: &mut u64) -> bool {
        *calls += 1;
        match placed.split_first() {
            None => true,
            Some((&p, rest)) => {
                p != row + dist && p != row - dist && ok(row, dist + 1, rest, calls)
            }
        }
    }
    fn try_(x: &[i64], y: &[i64], z: &[i64], calls: &mut u64) -> i64 {
        *calls += 1;
        let Some((&first, rest)) = x.split_first() else {
            return i64::from(y.is_empty());
        };
        let placed = if ok(first, 1, z, calls) {
            let mut x2 = rest.to_vec();
            x2.extend_from_slice(y);
            let mut z2 = vec![first];
            z2.extend_from_slice(z);
            try_(&x2, &[], &z2, calls)
        } else {
            0
        };
        let mut y2 = vec![first];
        y2.extend_from_slice(y);
        placed + try_(rest, &y2, z, calls)
    }
    let xs: Vec<i64> = (0..n).collect();
    try_(&xs, &[], &[], calls)
}

/// A `deriv` input expression.
#[derive(Debug, Clone)]
enum DExpr {
    Sym(&'static str),
    Num(i64),
    /// `(op a b)` with `op` being `+` or `*`.
    Op(&'static str, Box<DExpr>, Box<DExpr>),
}

impl DExpr {
    fn random(rng: &mut Rng, depth: i64) -> DExpr {
        if depth == 0 || rng.range(0, 4) == 0 {
            return match rng.range(0, 3) {
                0 | 1 => DExpr::Sym("x"),
                2 => DExpr::Sym("y"),
                _ => DExpr::Num(rng.range(1, 9)),
            };
        }
        let op = if rng.range(0, 1) == 0 { "+" } else { "*" };
        DExpr::Op(
            op,
            Box::new(DExpr::random(rng, depth - 1)),
            Box::new(DExpr::random(rng, depth - 1)),
        )
    }

    fn render(&self) -> String {
        match self {
            DExpr::Sym(s) => s.to_string(),
            DExpr::Num(n) => n.to_string(),
            DExpr::Op(op, a, b) => format!("({op} {} {})", a.render(), b.render()),
        }
    }

    fn deriv(&self) -> DExpr {
        let list3 = |op, a, b| DExpr::Op(op, Box::new(a), Box::new(b));
        match self {
            DExpr::Sym(s) => DExpr::Num(i64::from(*s == "x")),
            DExpr::Num(_) => DExpr::Num(0),
            DExpr::Op("+", a, b) => list3("+", a.deriv(), b.deriv()),
            DExpr::Op(_, a, b) => list3(
                "+",
                list3("*", (**a).clone(), b.deriv()),
                list3("*", (**b).clone(), a.deriv()),
            ),
        }
    }

    /// The template's `tree-size`: pairs plus leaves of the list encoding
    /// (a three-element list is three pairs, its three elements, and `()`).
    fn size(&self) -> i64 {
        match self {
            DExpr::Sym(_) | DExpr::Num(_) => 1,
            DExpr::Op(_, a, b) => 5 + a.size() + b.size(),
        }
    }
}

// ---------------------------------------------------------------------------
// Fillers
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum FillerKind {
    /// `(define (f x) (fx+ (fx* x a) b))`
    Affine { a: i64, b: i64 },
    /// `(define k n)`
    Const { n: i64 },
    /// `(define (f x y) (if (fx< x y) (fx- y x) (fx- x y)))`
    Dist,
    /// `(define (f x) (prev (fx+ x a)))`, `prev` an earlier affine or
    /// branch filler.
    Chain { prev: usize, a: i64 },
    /// `(define (f x) (if (fx< x a) (fx+ x b) (fx- x c)))`, `c <= a`.
    Branch { a: i64, b: i64, c: i64 },
    /// `(define l '(a b c))`
    Quoted { items: [i64; 3] },
}

#[derive(Debug, Clone)]
struct Filler {
    name: String,
    kind: FillerKind,
    source: String,
}

fn eval_unary(fs: &[Filler], i: usize, x: i64) -> i64 {
    match fs[i].kind {
        FillerKind::Affine { a, b } => x * a + b,
        FillerKind::Chain { prev, a } => eval_unary(fs, prev, x + a),
        FillerKind::Branch { a, b, c } => {
            if x < a {
                x + b
            } else {
                x - c
            }
        }
        _ => unreachable!("not a unary filler"),
    }
}

fn fillers(rng: &mut Rng, nm: &mut Namer, count: usize) -> Vec<Filler> {
    let mut out: Vec<Filler> = Vec::with_capacity(count);
    // Unary fillers that are not chains: a chain calls one of these, so
    // inlining a chain is one level deep.
    let mut leaves: Vec<usize> = Vec::new();
    for _ in 0..count {
        let kind = match rng.range(0, 9) {
            0..=2 => FillerKind::Affine {
                a: rng.range(1, 50),
                b: rng.range(0, 99),
            },
            3 => FillerKind::Const {
                n: rng.range(0, 9999),
            },
            4 => FillerKind::Dist,
            5..=6 if !leaves.is_empty() => FillerKind::Chain {
                prev: *rng.pick(&leaves),
                a: rng.range(1, 20),
            },
            5..=7 => {
                let a = rng.range(10, 60);
                FillerKind::Branch {
                    a,
                    b: rng.range(0, 30),
                    c: rng.range(0, a),
                }
            }
            _ => FillerKind::Quoted {
                items: [rng.range(0, 99), rng.range(0, 99), rng.range(0, 99)],
            },
        };
        let base = match kind {
            FillerKind::Const { .. } => "limit",
            FillerKind::Quoted { .. } => "triple",
            FillerKind::Dist => "dist",
            _ => "step",
        };
        let name = nm.name(base);
        let source = match &kind {
            FillerKind::Affine { a, b } => format!("(define ({name} x) (fx+ (fx* x {a}) {b}))"),
            FillerKind::Const { n } => format!("(define {name} {n})"),
            FillerKind::Dist => {
                format!("(define ({name} x y) (if (fx< x y) (fx- y x) (fx- x y)))")
            }
            FillerKind::Chain { prev, a } => {
                format!("(define ({name} x) ({} (fx+ x {a})))", out[*prev].name)
            }
            FillerKind::Branch { a, b, c } => {
                format!("(define ({name} x) (if (fx< x {a}) (fx+ x {b}) (fx- x {c})))")
            }
            FillerKind::Quoted { items: [a, b, c] } => format!("(define {name} '({a} {b} {c}))"),
        };
        let f = Filler { name, kind, source };
        if matches!(
            f.kind,
            FillerKind::Affine { .. } | FillerKind::Branch { .. }
        ) {
            leaves.push(out.len());
        }
        out.push(f);
    }
    out
}

/// A checksum procedure over a seeded sample of the fillers, so filler code
/// is live and its value checked.  Returns the definition plus
/// its call expression and reference value.
fn checksum(rng: &mut Rng, nm: &mut Namer, fs: &[Filler]) -> (String, String, i64) {
    if fs.is_empty() {
        return (String::new(), "0".into(), 0);
    }
    let name = nm.name("checksum");
    let mut body = "0".to_string();
    let mut value = 0i64;
    for _ in 0..fs.len().min(12) {
        let i = rng.range(0, fs.len() as i64 - 1) as usize;
        let f = &fs[i];
        let (term, v) = match f.kind {
            FillerKind::Const { n } => (f.name.clone(), n),
            FillerKind::Dist => {
                let (x, y) = (rng.range(0, 99), rng.range(0, 99));
                (format!("({} {x} {y})", f.name), (x - y).abs())
            }
            FillerKind::Quoted { items } => (format!("(cadr {})", f.name), items[1]),
            _ => {
                let x = rng.range(0, 50);
                (
                    format!("(fxremainder ({} {x}) 1000)", f.name),
                    eval_unary(fs, i, x) % 1000,
                )
            }
        };
        body = format!("(fx+ {term} {body})");
        value += v;
    }
    (
        format!("(define ({name}) {body})\n"),
        format!("({name})"),
        value,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn references_match_the_corpus_constants() {
        // Expected values of the sxr-bench corpus programs these templates
        // generalize (`crates/bench/src/lib.rs`).
        assert_eq!(fib_ref(22), 17711);
        assert_eq!(tak_ref(18, 12, 6, &mut 0), 7);
        assert_eq!(primes_below(1000), 168);
        let s = "the quick brown fox jumps over the lazy dog";
        let h = (0..500).fold(0, |h, _| (h + string_hash_ref(s)) % 1_000_003);
        assert_eq!(h, 286570);
        assert_eq!(queens_ref(8, &mut 0), 92);
    }

    #[test]
    fn deriv_reference_counts_the_list_encoding() {
        // (+ x 3) -> (+ 1 0): three pairs, three elements, one ().
        let e = DExpr::Op("+", Box::new(DExpr::Sym("x")), Box::new(DExpr::Num(3)));
        assert_eq!(e.deriv().size(), 7);
    }

    #[test]
    fn decks_hold_the_class_proportions() {
        for seed in [1, 2, 3] {
            let mut counts = std::collections::BTreeMap::new();
            for i in 0..deck_len() * 3 {
                *counts.entry(class_of(seed, i)).or_insert(0usize) += 1;
            }
            for (c, n) in DECK {
                assert_eq!(counts[&c], 3 * n);
            }
        }
    }
}
