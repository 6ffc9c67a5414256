//! Line-safe serialisation of minterm sets for the disk cache.
//!
//! `hat-engine-cache v3` persists whole alphabet transformations as `M` records, so warm
//! runs skip minterm enumeration entirely. A record's payload is the canonical
//! ([`crate::canon::alphabet_key`]-renamed) [`MintermSet`] in the format below — a
//! self-delimiting prefix encoding in which every user-supplied name is length-prefixed
//! and control characters are escaped, so a payload can never contain the store file's
//! record delimiters (tab, newline) and parsing is injective:
//!
//! ```text
//! set     := 'U' count { atom } 'M' count { minterm } 'P' count 'Q' count
//! minterm := 'O' name count { sign atom }         sign: '+' (true) | '-' (false)
//! atom    := '=' term term | '<' term term | 'L' term term
//!          | 'P' name count { term } | 'B' term
//! term    := 'v' name | 'c' const | 'a' fnsym count { term }
//! const   := 'u' | 't' | 'f' | 'i' int ';' | 'n' name
//! fnsym   := '+' | '-' | '*' | '%' | '~' | 'N' name
//! name    := bytelen '#' escaped-utf8
//! count   := decimal ';'
//! ```
//!
//! Unparseable payloads are rejected (`None`), which the cache counts as stale lines —
//! a torn final write degrades to a cold enumeration, never to a wrong alphabet.

use hat_logic::{Atom, Constant, FuncSym, Term};
use hat_sfa::{Minterm, MintermSet};
use std::fmt::Write as _;

/// Serialises a canonical minterm set into a single line-safe payload.
pub fn ser_minterm_set(set: &MintermSet) -> String {
    let mut out = String::with_capacity(256);
    out.push('U');
    ser_count(set.uniform_literals.len(), &mut out);
    for a in &set.uniform_literals {
        ser_atom(a, &mut out);
    }
    out.push('M');
    ser_count(set.minterms.len(), &mut out);
    for m in &set.minterms {
        out.push('O');
        ser_name(&m.op, &mut out);
        ser_count(m.assignment.len(), &mut out);
        for (a, v) in &m.assignment {
            out.push(if *v { '+' } else { '-' });
            ser_atom(a, &mut out);
        }
    }
    // The enumeration-work counters are stored so a warm run can report what the cold
    // enumeration cost (they are zeroed on memo hits anyway, see `build_minterms_with`).
    out.push('P');
    ser_count(set.pruned, &mut out);
    out.push('Q');
    ser_count(set.enum_queries, &mut out);
    out
}

/// Parses a payload produced by [`ser_minterm_set`]. Returns `None` on any malformation
/// (including trailing garbage).
pub fn parse_minterm_set(payload: &str) -> Option<MintermSet> {
    let mut p = Parser { rest: payload };
    p.expect('U')?;
    let n = p.count()?;
    let mut uniform_literals = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        uniform_literals.push(p.atom()?);
    }
    p.expect('M')?;
    let n = p.count()?;
    let mut minterms = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        p.expect('O')?;
        let op = p.name()?;
        let k = p.count()?;
        let mut assignment = Vec::with_capacity(k.min(1024));
        for _ in 0..k {
            let v = match p.bump()? {
                '+' => true,
                '-' => false,
                _ => return None,
            };
            assignment.push((p.atom()?, v));
        }
        minterms.push(Minterm { op, assignment });
    }
    p.expect('P')?;
    let pruned = p.count()?;
    p.expect('Q')?;
    let enum_queries = p.count()?;
    if !p.rest.is_empty() {
        return None;
    }
    Some(MintermSet {
        minterms,
        uniform_literals,
        pruned,
        enum_queries,
        from_memo: false,
    })
}

fn ser_count(n: usize, out: &mut String) {
    let _ = write!(out, "{n};");
}

/// Length-prefixed, escaped name — the same discipline as the cache keys (see
/// `canon::ser_name`): no tab or newline can survive into the payload, and the byte
/// length counts the escaped form, keeping the encoding injective.
fn ser_name(n: &str, out: &mut String) {
    // The escaped length goes first, so it is counted before the escape is written
    // straight into `out`: no buffer per name. A store write serialises every name of
    // every minterm set at once, on the thread that ends the run.
    let escaped_len: usize = n
        .chars()
        .map(|c| match c {
            '\\' => 2,
            c if is_escaped_control(c) => 4,
            c => c.len_utf8(),
        })
        .sum();
    let _ = write!(out, "{escaped_len}#");
    for c in n.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            c if is_escaped_control(c) => {
                let _ = write!(out, "\\x{:02x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

fn ser_atom(a: &Atom, out: &mut String) {
    match a {
        Atom::Eq(l, r) => {
            out.push('=');
            ser_term(l, out);
            ser_term(r, out);
        }
        Atom::Lt(l, r) => {
            out.push('<');
            ser_term(l, out);
            ser_term(r, out);
        }
        Atom::Le(l, r) => {
            out.push('L');
            ser_term(l, out);
            ser_term(r, out);
        }
        Atom::Pred(p, args) => {
            out.push('P');
            ser_name(p, out);
            ser_count(args.len(), out);
            for t in args {
                ser_term(t, out);
            }
        }
        Atom::BoolTerm(t) => {
            out.push('B');
            ser_term(t, out);
        }
    }
}

fn ser_term(t: &Term, out: &mut String) {
    match t {
        Term::Var(x) => {
            out.push('v');
            ser_name(x, out);
        }
        Term::Const(c) => {
            out.push('c');
            match c {
                Constant::Unit => out.push('u'),
                Constant::Bool(true) => out.push('t'),
                Constant::Bool(false) => out.push('f'),
                Constant::Int(i) => {
                    let _ = write!(out, "i{i};");
                }
                Constant::Atom(a) => {
                    out.push('n');
                    ser_name(a, out);
                }
            }
        }
        Term::App(f, args) => {
            out.push('a');
            match f {
                FuncSym::Add => out.push('+'),
                FuncSym::Sub => out.push('-'),
                FuncSym::Mul => out.push('*'),
                FuncSym::Mod => out.push('%'),
                FuncSym::Neg => out.push('~'),
                FuncSym::Named(n) => {
                    out.push('N');
                    ser_name(n, out);
                }
            }
            ser_count(args.len(), out);
            for a in args {
                ser_term(a, out);
            }
        }
    }
}

struct Parser<'a> {
    rest: &'a str,
}

impl Parser<'_> {
    fn bump(&mut self) -> Option<char> {
        let c = self.rest.chars().next()?;
        self.rest = &self.rest[c.len_utf8()..];
        Some(c)
    }

    fn expect(&mut self, c: char) -> Option<()> {
        (self.bump()? == c).then_some(())
    }

    /// A decimal count terminated by `;`, with a sanity bound so a corrupt length cannot
    /// drive huge pre-allocations.
    fn count(&mut self) -> Option<usize> {
        let end = self.rest.find(';')?;
        let n: usize = self.rest[..end].parse().ok()?;
        self.rest = &self.rest[end + 1..];
        (n <= 100_000_000).then_some(n)
    }

    /// A (possibly negative) decimal integer terminated by `;`.
    fn int(&mut self) -> Option<i64> {
        let end = self.rest.find(';')?;
        let n: i64 = self.rest[..end].parse().ok()?;
        self.rest = &self.rest[end + 1..];
        Some(n)
    }

    fn name(&mut self) -> Option<String> {
        let hash = self.rest.find('#')?;
        let len: usize = self.rest[..hash].parse().ok()?;
        let body = self.rest.get(hash + 1..hash + 1 + len)?;
        self.rest = &self.rest[hash + 1 + len..];
        unescape(body)
    }

    fn atom(&mut self) -> Option<Atom> {
        match self.bump()? {
            '=' => Some(Atom::Eq(self.term()?, self.term()?)),
            '<' => Some(Atom::Lt(self.term()?, self.term()?)),
            'L' => Some(Atom::Le(self.term()?, self.term()?)),
            'P' => {
                let p = self.name()?;
                let n = self.count()?;
                let mut args = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    args.push(self.term()?);
                }
                Some(Atom::Pred(p, args))
            }
            'B' => Some(Atom::BoolTerm(self.term()?)),
            _ => None,
        }
    }

    fn term(&mut self) -> Option<Term> {
        match self.bump()? {
            'v' => Some(Term::Var(self.name()?)),
            'c' => {
                let c = match self.bump()? {
                    'u' => Constant::Unit,
                    't' => Constant::Bool(true),
                    'f' => Constant::Bool(false),
                    'i' => Constant::Int(self.int()?),
                    'n' => Constant::Atom(self.name()?),
                    _ => return None,
                };
                Some(Term::Const(c))
            }
            'a' => {
                let f = match self.bump()? {
                    '+' => FuncSym::Add,
                    '-' => FuncSym::Sub,
                    '*' => FuncSym::Mul,
                    '%' => FuncSym::Mod,
                    '~' => FuncSym::Neg,
                    'N' => FuncSym::Named(self.name()?),
                    _ => return None,
                };
                let n = self.count()?;
                let mut args = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    args.push(self.term()?);
                }
                Some(Term::App(f, args))
            }
            _ => None,
        }
    }
}

/// Whether `ser_name` escapes `c` as `\\xHH` rather than writing it raw.
fn is_escaped_control(c: char) -> bool {
    (c as u32) < 0x20 || c == '\u{7f}'
}

/// Decodes exactly what `ser_name` writes: a raw control character, an escape of a
/// character `ser_name` writes raw, or an uppercase hex digit is a flipped byte, so the
/// name is rejected rather than read as another name.
fn unescape(s: &str) -> Option<String> {
    let hex = |c: char| c.to_digit(16).filter(|_| !c.is_ascii_uppercase());
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if is_escaped_control(c) {
            return None;
        }
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next()? {
            '\\' => out.push('\\'),
            'x' => {
                let hi = hex(chars.next()?)?;
                let lo = hex(chars.next()?)?;
                out.push(char::from_u32(hi * 16 + lo).filter(|&c| is_escaped_control(c))?);
            }
            _ => return None,
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_set() -> MintermSet {
        MintermSet {
            minterms: vec![
                Minterm {
                    op: "put".into(),
                    assignment: vec![
                        (Atom::Eq(Term::var("#arg0"), Term::var("$k0")), true),
                        (Atom::Pred("isDir".into(), vec![Term::var("#arg1")]), false),
                    ],
                },
                Minterm {
                    op: "exists".into(),
                    assignment: vec![(
                        Atom::Lt(Term::int(-3), Term::app("parent", vec![Term::var("$k1")])),
                        true,
                    )],
                },
            ],
            uniform_literals: vec![
                Atom::Le(Term::var("$k0"), Term::atom("node:0")),
                Atom::BoolTerm(Term::var("$k2")),
            ],
            pruned: 7,
            enum_queries: 12,
            from_memo: false,
        }
    }

    #[test]
    fn roundtrip_preserves_every_field() {
        let set = sample_set();
        let payload = ser_minterm_set(&set);
        assert!(!payload.contains('\t') && !payload.contains('\n'));
        let back = parse_minterm_set(&payload).expect("roundtrip parses");
        assert_eq!(back.minterms, set.minterms);
        assert_eq!(back.uniform_literals, set.uniform_literals);
        assert_eq!(back.pruned, set.pruned);
        assert_eq!(back.enum_queries, set.enum_queries);
        assert!(!back.from_memo);
    }

    #[test]
    fn empty_set_roundtrips() {
        let payload = ser_minterm_set(&MintermSet::default());
        let back = parse_minterm_set(&payload).expect("empty set parses");
        assert!(back.minterms.is_empty() && back.uniform_literals.is_empty());
    }

    #[test]
    fn hostile_names_stay_line_safe_and_roundtrip() {
        // Deterministic xorshift fuzz over names biased towards delimiters and escapes.
        struct XorShift(u64);
        impl XorShift {
            fn next(&mut self) -> u64 {
                let mut x = self.0;
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                self.0 = x;
                x
            }
        }
        let alphabet: Vec<char> = vec![
            '\t', '\n', '\r', '\\', '#', ';', '+', '-', 'O', 'M', 'v', '0', '\u{7f}', '\u{1}', 'é',
            '→', 'a',
        ];
        let mut rng = XorShift(0x9e3779b97f4a7c15);
        for _ in 0..256 {
            let len = (rng.next() % 10) as usize;
            let name: String = (0..len)
                .map(|_| alphabet[(rng.next() % alphabet.len() as u64) as usize])
                .collect();
            let set = MintermSet {
                minterms: vec![Minterm {
                    op: name.clone(),
                    assignment: vec![(
                        Atom::Pred(name.clone(), vec![Term::atom(name.clone())]),
                        rng.next().is_multiple_of(2),
                    )],
                }],
                uniform_literals: vec![Atom::Eq(Term::var(name.clone()), Term::var(name.clone()))],
                ..MintermSet::default()
            };
            let payload = ser_minterm_set(&set);
            assert!(
                !payload.contains('\t') && !payload.contains('\n') && !payload.contains('\r'),
                "payload for {name:?} leaks a record delimiter"
            );
            let back = parse_minterm_set(&payload).expect("fuzzed payload parses");
            assert_eq!(back.minterms, set.minterms);
            assert_eq!(back.uniform_literals, set.uniform_literals);
        }
    }

    #[test]
    fn names_decode_only_what_the_encoder_writes() {
        let payload_with = |name: &str| format!("U0;M1;O{}#{name}0;P0;Q0;", name.len());
        assert!(parse_minterm_set(&payload_with("a\\x09b")).is_some());
        for raw in ["a\tb", "a\u{1}b", "a\u{7f}b", "a\\x41b", "a\\x0Ab"] {
            assert!(
                parse_minterm_set(&payload_with(raw)).is_none(),
                "{raw:?} is not something `ser_name` writes"
            );
        }
    }

    #[test]
    fn truncated_and_garbled_payloads_are_rejected() {
        let payload = ser_minterm_set(&sample_set());
        for cut in [1, payload.len() / 2, payload.len() - 1] {
            // Cut on a char boundary (payloads are ASCII except inside names).
            if payload.is_char_boundary(cut) {
                assert!(
                    parse_minterm_set(&payload[..cut]).is_none(),
                    "truncation at {cut} must not parse"
                );
            }
        }
        assert!(parse_minterm_set(&format!("{payload}x")).is_none());
        assert!(parse_minterm_set("U1;").is_none());
        assert!(parse_minterm_set("").is_none());
    }
}
