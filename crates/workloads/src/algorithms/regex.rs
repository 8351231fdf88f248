//! A small regular-expression engine (Thompson NFA construction with a
//! single-pass, Pike-VM-style simulation) for the `RegExSearch` and
//! `RegExMatch` workloads.
//!
//! Supported syntax: literals, `.`, character classes `[a-z0-9]` and
//! negated classes `[^…]`, escapes `\d \D \w \W \s \S` plus escaped
//! metacharacters, repetition `* + ?` and bounded `{m}`/`{m,n}`/`{m,}`,
//! alternation `|`, grouping `(…)`, and anchors `^` / `$`.
//!
//! Matching scans the text once, front to back, for both `is_match` and
//! `find_all`. Every live thread is tagged with the offset its match
//! attempt started at, a fresh thread is seeded at every position, and
//! the thread list stays in start order. When two threads reach the same
//! NFA state at the same position only the earlier start survives, since
//! both have the same future; so the list holds at most one thread per
//! state and each input byte costs O(states). When a thread accepts,
//! every thread that started later lies inside its match and is dropped,
//! which leaves `find_all` with leftmost-longest, non-overlapping ranges
//! without rescanning any byte. Both calls are therefore linear in the
//! input, and nothing backtracks, so pathological patterns like `(a+)+`
//! stay fast. Each call allocates its thread lists and visited marks
//! once and reuses them at every position.
//!
//! Groups nested deeper than [`MAX_DEPTH`] are a parse error: the parser
//! and the NFA compiler recurse once per level, so hostile patterns
//! cannot overflow the stack.

use std::fmt;
use std::ops::ControlFlow;

/// Deepest group nesting [`Regex::new`] accepts. The parser and the
/// compiler recurse once per level, so deeper patterns would overflow
/// the stack; real patterns nest a few levels.
pub const MAX_DEPTH: usize = 128;

/// Error produced when a pattern fails to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePatternError {
    /// Byte offset in the pattern where the problem was found.
    pub position: usize,
    message: String,
}

impl fmt::Display for ParsePatternError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at pattern offset {}", self.message, self.position)
    }
}

impl std::error::Error for ParsePatternError {}

fn err(position: usize, message: impl Into<String>) -> ParsePatternError {
    ParsePatternError {
        position,
        message: message.into(),
    }
}

// --------------------------------------------------------------------------
// AST
// --------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Ast {
    Empty,
    Char(CharSet),
    AnchorStart,
    AnchorEnd,
    Concat(Vec<Ast>),
    Alternate(Vec<Ast>),
    Repeat {
        node: Box<Ast>,
        min: u32,
        max: Option<u32>,
    },
}

/// A set of byte values, stored as a 256-bit bitmap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CharSet {
    bits: [u64; 4],
}

impl CharSet {
    fn empty() -> Self {
        CharSet { bits: [0; 4] }
    }

    fn single(b: u8) -> Self {
        let mut set = CharSet::empty();
        set.insert(b);
        set
    }

    fn insert(&mut self, b: u8) {
        self.bits[(b >> 6) as usize] |= 1u64 << (b & 63);
    }

    fn insert_range(&mut self, lo: u8, hi: u8) {
        for b in lo..=hi {
            self.insert(b);
        }
    }

    fn contains(&self, b: u8) -> bool {
        self.bits[(b >> 6) as usize] & (1u64 << (b & 63)) != 0
    }

    fn negate(&mut self) {
        for word in &mut self.bits {
            *word = !*word;
        }
    }

    fn union(&mut self, other: &CharSet) {
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a |= b;
        }
    }

    fn any_byte() -> Self {
        let mut set = CharSet::empty();
        set.negate();
        // `.` conventionally excludes newline.
        set.bits[(b'\n' >> 6) as usize] &= !(1u64 << (b'\n' & 63));
        set
    }

    fn digits() -> Self {
        let mut set = CharSet::empty();
        set.insert_range(b'0', b'9');
        set
    }

    fn word() -> Self {
        let mut set = CharSet::empty();
        set.insert_range(b'a', b'z');
        set.insert_range(b'A', b'Z');
        set.insert_range(b'0', b'9');
        set.insert(b'_');
        set
    }

    fn whitespace() -> Self {
        let mut set = CharSet::empty();
        for b in [b' ', b'\t', b'\n', b'\r', 0x0b, 0x0c] {
            set.insert(b);
        }
        set
    }
}

// --------------------------------------------------------------------------
// Parser (recursive descent)
// --------------------------------------------------------------------------

struct Parser<'a> {
    pattern: &'a [u8],
    pos: usize,
    /// Groups open at `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn parse(pattern: &'a str) -> Result<Ast, ParsePatternError> {
        let mut parser = Parser {
            pattern: pattern.as_bytes(),
            pos: 0,
            depth: 0,
        };
        let ast = parser.alternation()?;
        if parser.pos != parser.pattern.len() {
            return Err(err(parser.pos, "unexpected ')'"));
        }
        Ok(ast)
    }

    fn peek(&self) -> Option<u8> {
        self.pattern.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn alternation(&mut self) -> Result<Ast, ParsePatternError> {
        let mut branches = vec![self.concat()?];
        while self.peek() == Some(b'|') {
            self.bump();
            branches.push(self.concat()?);
        }
        Ok(if branches.len() == 1 {
            branches.pop().expect("one branch")
        } else {
            Ast::Alternate(branches)
        })
    }

    fn concat(&mut self) -> Result<Ast, ParsePatternError> {
        let mut parts = Vec::new();
        while let Some(b) = self.peek() {
            if b == b'|' || b == b')' {
                break;
            }
            parts.push(self.repetition()?);
        }
        Ok(match parts.len() {
            0 => Ast::Empty,
            1 => parts.pop().expect("one part"),
            _ => Ast::Concat(parts),
        })
    }

    fn repetition(&mut self) -> Result<Ast, ParsePatternError> {
        let start = self.pos;
        let atom = self.atom()?;
        let node = match self.peek() {
            Some(b'*') => {
                self.bump();
                Ast::Repeat {
                    node: Box::new(atom),
                    min: 0,
                    max: None,
                }
            }
            Some(b'+') => {
                self.bump();
                Ast::Repeat {
                    node: Box::new(atom),
                    min: 1,
                    max: None,
                }
            }
            Some(b'?') => {
                self.bump();
                Ast::Repeat {
                    node: Box::new(atom),
                    min: 0,
                    max: Some(1),
                }
            }
            Some(b'{') => {
                self.bump();
                let (min, max) = self.bounds()?;
                if let Some(max) = max {
                    if max < min {
                        return Err(err(start, "repetition bound max < min"));
                    }
                }
                Ast::Repeat {
                    node: Box::new(atom),
                    min,
                    max,
                }
            }
            _ => atom,
        };
        if matches!(node, Ast::Repeat { .. }) {
            if let Ast::Repeat {
                node: ref inner, ..
            } = node
            {
                if matches!(**inner, Ast::AnchorStart | Ast::AnchorEnd) {
                    return Err(err(start, "cannot repeat an anchor"));
                }
            }
        }
        Ok(node)
    }

    fn bounds(&mut self) -> Result<(u32, Option<u32>), ParsePatternError> {
        let min = self.number()?;
        match self.bump() {
            Some(b'}') => Ok((min, Some(min))),
            Some(b',') => {
                if self.peek() == Some(b'}') {
                    self.bump();
                    Ok((min, None))
                } else {
                    let max = self.number()?;
                    match self.bump() {
                        Some(b'}') => Ok((min, Some(max))),
                        _ => Err(err(self.pos, "expected '}'")),
                    }
                }
            }
            _ => Err(err(self.pos, "expected ',' or '}'")),
        }
    }

    fn number(&mut self) -> Result<u32, ParsePatternError> {
        let start = self.pos;
        let mut value: u32 = 0;
        let mut any = false;
        while let Some(b @ b'0'..=b'9') = self.peek() {
            self.bump();
            any = true;
            value = value
                .checked_mul(10)
                .and_then(|v| v.checked_add((b - b'0') as u32))
                .ok_or_else(|| err(start, "repetition bound too large"))?;
            if value > 1_000 {
                return Err(err(start, "repetition bound exceeds 1000"));
            }
        }
        if !any {
            return Err(err(start, "expected a number"));
        }
        Ok(value)
    }

    fn atom(&mut self) -> Result<Ast, ParsePatternError> {
        let start = self.pos;
        match self.bump() {
            None => Err(err(start, "unexpected end of pattern")),
            Some(b'(') => {
                if self.depth == MAX_DEPTH {
                    return Err(err(
                        start,
                        format!("groups nested deeper than {MAX_DEPTH} levels"),
                    ));
                }
                self.depth += 1;
                let inner = self.alternation()?;
                self.depth -= 1;
                match self.bump() {
                    Some(b')') => Ok(inner),
                    _ => Err(err(start, "unclosed group")),
                }
            }
            Some(b'[') => self.char_class(start),
            Some(b'.') => Ok(Ast::Char(CharSet::any_byte())),
            Some(b'^') => Ok(Ast::AnchorStart),
            Some(b'$') => Ok(Ast::AnchorEnd),
            Some(b'\\') => self.escape(start).map(Ast::Char),
            Some(b @ (b'*' | b'+' | b'?')) => Err(err(
                start,
                format!("dangling repetition operator '{}'", b as char),
            )),
            Some(b) => Ok(Ast::Char(CharSet::single(b))),
        }
    }

    fn escape(&mut self, start: usize) -> Result<CharSet, ParsePatternError> {
        match self.bump() {
            None => Err(err(start, "trailing backslash")),
            Some(b'd') => Ok(CharSet::digits()),
            Some(b'D') => {
                let mut set = CharSet::digits();
                set.negate();
                Ok(set)
            }
            Some(b'w') => Ok(CharSet::word()),
            Some(b'W') => {
                let mut set = CharSet::word();
                set.negate();
                Ok(set)
            }
            Some(b's') => Ok(CharSet::whitespace()),
            Some(b'S') => {
                let mut set = CharSet::whitespace();
                set.negate();
                Ok(set)
            }
            Some(b'n') => Ok(CharSet::single(b'\n')),
            Some(b't') => Ok(CharSet::single(b'\t')),
            Some(b'r') => Ok(CharSet::single(b'\r')),
            Some(
                b @ (b'\\' | b'.' | b'*' | b'+' | b'?' | b'(' | b')' | b'[' | b']' | b'{' | b'}'
                | b'|' | b'^' | b'$' | b'-' | b'/'),
            ) => Ok(CharSet::single(b)),
            Some(b) => Err(err(start, format!("unknown escape '\\{}'", b as char))),
        }
    }

    fn char_class(&mut self, start: usize) -> Result<Ast, ParsePatternError> {
        let negated = if self.peek() == Some(b'^') {
            self.bump();
            true
        } else {
            false
        };
        let mut set = CharSet::empty();
        let mut first = true;
        loop {
            let item_start = self.pos;
            match self.bump() {
                None => return Err(err(start, "unclosed character class")),
                Some(b']') if !first => break,
                Some(b) => {
                    let lo_set = if b == b'\\' {
                        self.escape(item_start)?
                    } else {
                        CharSet::single(b)
                    };
                    // Range only applies to single characters.
                    if self.peek() == Some(b'-') && self.pattern.get(self.pos + 1) != Some(&b']') {
                        if lo_set != CharSet::single(b) || b == b'\\' {
                            return Err(err(item_start, "range bound must be a literal"));
                        }
                        self.bump(); // consume '-'
                        let hi_pos = self.pos;
                        let hi = match self.bump() {
                            Some(b'\\') => {
                                let hs = self.escape(hi_pos)?;
                                // Only single-char escapes are valid bounds.
                                let mut found = None;
                                for v in 0..=255u8 {
                                    if hs.contains(v) {
                                        if found.is_some() {
                                            return Err(err(
                                                hi_pos,
                                                "range bound must be a literal",
                                            ));
                                        }
                                        found = Some(v);
                                    }
                                }
                                found.ok_or_else(|| err(hi_pos, "empty range bound"))?
                            }
                            Some(h) => h,
                            None => return Err(err(start, "unclosed character class")),
                        };
                        if hi < b {
                            return Err(err(item_start, "character range out of order"));
                        }
                        set.insert_range(b, hi);
                    } else {
                        set.union(&lo_set);
                    }
                }
            }
            first = false;
        }
        if negated {
            set.negate();
        }
        Ok(Ast::Char(set))
    }
}

// --------------------------------------------------------------------------
// NFA
// --------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum State {
    Char { set: CharSet, next: usize },
    Split { a: usize, b: usize },
    AnchorStart { next: usize },
    AnchorEnd { next: usize },
    Accept,
}

/// A compiled regular expression.
///
/// # Examples
///
/// ```
/// use microfaas_workloads::algorithms::regex::Regex;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let re = Regex::new(r"[a-z]+@[a-z]+\.(com|org)")?;
/// assert!(re.is_match("mail me at someone@example.org today"));
/// assert_eq!(re.find_all("a@b.com c@d.org"), vec![(0, 7), (8, 15)]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Regex {
    states: Vec<State>,
    start: usize,
    pattern: String,
}

struct Compiler {
    states: Vec<State>,
}

impl Compiler {
    fn push(&mut self, state: State) -> usize {
        self.states.push(state);
        self.states.len() - 1
    }

    /// Compiles `ast`, arranging for the fragment to continue at `next`.
    /// Returns the fragment's entry state.
    fn compile(&mut self, ast: &Ast, next: usize) -> usize {
        match ast {
            Ast::Empty => next,
            Ast::Char(set) => self.push(State::Char { set: *set, next }),
            Ast::AnchorStart => self.push(State::AnchorStart { next }),
            Ast::AnchorEnd => self.push(State::AnchorEnd { next }),
            Ast::Concat(parts) => {
                let mut entry = next;
                for part in parts.iter().rev() {
                    entry = self.compile(part, entry);
                }
                entry
            }
            Ast::Alternate(branches) => {
                let entries: Vec<usize> = branches.iter().map(|b| self.compile(b, next)).collect();
                entries
                    .into_iter()
                    .reduce(|a, b| self.push(State::Split { a, b }))
                    .expect("alternation has branches")
            }
            Ast::Repeat { node, min, max } => self.compile_repeat(node, *min, *max, next),
        }
    }

    fn compile_repeat(&mut self, node: &Ast, min: u32, max: Option<u32>, next: usize) -> usize {
        match max {
            None => {
                // Unbounded tail: a loop split.
                let split_idx = self.push(State::Split { a: 0, b: next });
                let body = self.compile(node, split_idx);
                if let State::Split { a, .. } = &mut self.states[split_idx] {
                    *a = body;
                }
                let mut entry = split_idx;
                for _ in 0..min {
                    entry = self.compile(node, entry);
                }
                entry
            }
            Some(max) => {
                // min required copies then (max - min) optional copies.
                let mut entry = next;
                for _ in min..max {
                    let body = self.compile(node, entry);
                    entry = self.push(State::Split { a: body, b: next });
                }
                for _ in 0..min {
                    entry = self.compile(node, entry);
                }
                entry
            }
        }
    }
}

impl Regex {
    /// Compiles `pattern`.
    ///
    /// # Errors
    ///
    /// Returns [`ParsePatternError`] for malformed syntax or groups
    /// nested deeper than [`MAX_DEPTH`].
    pub fn new(pattern: &str) -> Result<Self, ParsePatternError> {
        let ast = Parser::parse(pattern)?;
        let mut compiler = Compiler { states: Vec::new() };
        let accept = compiler.push(State::Accept);
        let start = compiler.compile(&ast, accept);
        Ok(Regex {
            states: compiler.states,
            start,
            pattern: pattern.to_string(),
        })
    }

    /// The original pattern string.
    pub fn pattern(&self) -> &str {
        &self.pattern
    }

    /// Returns true if the pattern matches anywhere in `text`
    /// (the `RegExMatch` workload semantics).
    pub fn is_match(&self, text: &str) -> bool {
        let mut found = false;
        self.scan(text.as_bytes(), |_, _| {
            found = true;
            ControlFlow::Break(())
        });
        found
    }

    /// Finds all leftmost-longest non-overlapping matches
    /// (the `RegExSearch` workload semantics). Returns byte ranges.
    pub fn find_all(&self, text: &str) -> Vec<(usize, usize)> {
        let mut matches: Vec<(usize, usize)> = Vec::new();
        self.scan(text.as_bytes(), |start, end| {
            // A match that starts earlier covers the tentative ones
            // after it; a later end for the same start lengthens it.
            while matches.last().is_some_and(|&(s, _)| s > start) {
                matches.pop();
            }
            match matches.last_mut() {
                Some(last) if last.0 == start => last.1 = end,
                _ => matches.push((start, end)),
            }
            ControlFlow::Continue(())
        });
        matches
    }

    /// One pass over `text`, calling `on_match(start, end)` whenever a
    /// thread that started at `start` accepts at `end`, in order of
    /// `end`, until it returns `Break`.
    ///
    /// Every thread carries the offset its match attempt started at, and
    /// the thread list stays in start order: the threads stepped from the
    /// last position first, then a fresh thread seeded at this one. When
    /// a thread that started at `s` accepts at `pos`, every later-started
    /// thread lies inside the match `(s, pos)` and is dropped. So no live
    /// thread ever starts inside a match reported so far, and a report
    /// either lengthens the last match, starts after it, or starts
    /// before it and covers it.
    fn scan(&self, text: &[u8], mut on_match: impl FnMut(usize, usize) -> ControlFlow<()>) {
        // At most one thread per state per position, so neither list
        // grows past its first allocation.
        let states = self.states.len();
        let mut current = Vec::with_capacity(states);
        let mut next = Vec::with_capacity(states);
        let mut visited = Visited {
            // Each state reached pushes at most two more.
            stack: Vec::with_capacity(2 * states + 1),
            marks: vec![0; states],
            generation: 1,
        };
        // Whether the pattern matches the empty string after the text
        // start, inside the text and at its end. A seed's empty match is
        // read from here: earlier threads may already have claimed the
        // ε-states on its way to `Accept` at the same position.
        let empty_match = [false, true].map(|at_end| {
            visited.next_position();
            let accepts = self.add_thread(&mut next, &mut visited, self.start, 0, false, at_end);
            next.clear();
            accepts
        });
        visited.next_position();
        let mut pos = 0;
        loop {
            // Seeded last, so the list stays in start order.
            let at_end = pos == text.len();
            let accepts = self.add_thread(
                &mut current,
                &mut visited,
                self.start,
                pos,
                pos == 0,
                at_end,
            );
            let empty = if pos == 0 {
                accepts
            } else {
                empty_match[usize::from(at_end)]
            };
            if empty && on_match(pos, pos).is_break() {
                return;
            }
            let Some(&byte) = text.get(pos) else {
                return;
            };
            pos += 1;
            visited.next_position();
            next.clear();
            let mut accepted: Option<usize> = None;
            for thread in &current {
                if accepted.is_some_and(|start| thread.start > start) {
                    break;
                }
                let State::Char { set, next: to } = &self.states[thread.state] else {
                    continue;
                };
                if set.contains(byte)
                    && self.add_thread(
                        &mut next,
                        &mut visited,
                        *to,
                        thread.start,
                        false,
                        pos == text.len(),
                    )
                    && accepted.is_none()
                {
                    accepted = Some(thread.start);
                    if on_match(thread.start, pos).is_break() {
                        return;
                    }
                }
            }
            std::mem::swap(&mut current, &mut next);
        }
    }

    /// Adds the `Char` states reachable from `state` through
    /// ε-transitions to `list`, as threads that started at `start`, and
    /// returns whether `Accept` is reachable. `at_start`/`at_end` say
    /// whether the current position is the text's start or end, which
    /// decides the anchors.
    ///
    /// A state already reached at this position is skipped: the thread
    /// that got there first started no later (threads arrive in start
    /// order) and has exactly the same future. A later-started thread
    /// cut off from `Accept` this way lies inside the earlier start's
    /// match and is dropped anyway; the one exception, a seed's empty
    /// match, `scan` reads from the pattern instead.
    fn add_thread(
        &self,
        list: &mut Vec<Thread>,
        visited: &mut Visited,
        state: usize,
        start: usize,
        at_start: bool,
        at_end: bool,
    ) -> bool {
        let mut accepts = false;
        visited.stack.push(state);
        while let Some(s) = visited.stack.pop() {
            match &self.states[s] {
                State::Accept => accepts = true,
                _ if !visited.insert(s) => {}
                State::Split { a, b } => visited.stack.extend([*b, *a]),
                State::AnchorStart { next } => {
                    if at_start {
                        visited.stack.push(*next);
                    }
                }
                State::AnchorEnd { next } => {
                    if at_end {
                        visited.stack.push(*next);
                    }
                }
                State::Char { .. } => list.push(Thread { state: s, start }),
            }
        }
        accepts
    }
}

/// One simulation thread: an NFA `Char` state and the text offset where
/// its match attempt started.
#[derive(Debug, Clone, Copy)]
struct Thread {
    state: usize,
    start: usize,
}

/// The states already reached at the current text position, plus the
/// explicit stack of the ε-closure walk. One is allocated per scan and
/// reused at every position.
struct Visited {
    stack: Vec<usize>,
    /// `marks[s] == generation` when state `s` was reached at this position.
    marks: Vec<u32>,
    generation: u32,
}

impl Visited {
    /// Forgets every mark in O(1) by moving to a new generation.
    fn next_position(&mut self) {
        self.generation = self.generation.checked_add(1).unwrap_or_else(|| {
            self.marks.fill(0);
            1
        });
    }

    /// Marks `state` as reached at this position; false if it already was.
    fn insert(&mut self, state: usize) -> bool {
        let fresh = self.marks[state] != self.generation;
        self.marks[state] = self.generation;
        fresh
    }
}

impl fmt::Display for Regex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "/{}/", self.pattern)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn re(pattern: &str) -> Regex {
        Regex::new(pattern).expect("valid pattern")
    }

    #[test]
    fn literal_match() {
        assert!(re("abc").is_match("xxabcxx"));
        assert!(!re("abc").is_match("ab c"));
    }

    #[test]
    fn dot_matches_any_but_newline() {
        assert!(re("a.c").is_match("abc"));
        assert!(re("a.c").is_match("a0c"));
        assert!(!re("a.c").is_match("a\nc"));
    }

    #[test]
    fn star_plus_question() {
        assert!(re("ab*c").is_match("ac"));
        assert!(re("ab*c").is_match("abbbbc"));
        assert!(!re("ab+c").is_match("ac"));
        assert!(re("ab+c").is_match("abc"));
        assert!(re("ab?c").is_match("ac"));
        assert!(re("ab?c").is_match("abc"));
        assert!(!re("ab?c").is_match("abbc"));
    }

    #[test]
    fn bounded_repetition() {
        let r = re("a{3}");
        assert!(r.is_match("aaa"));
        assert!(!r.is_match("aa"));
        let r = re("^a{2,4}$");
        assert!(!r.is_match("a"));
        assert!(r.is_match("aa"));
        assert!(r.is_match("aaaa"));
        assert!(!r.is_match("aaaaa"));
        let r = re("^a{2,}$");
        assert!(r.is_match("aaaaaa"));
        assert!(!r.is_match("a"));
    }

    #[test]
    fn alternation_and_groups() {
        let r = re("(cat|dog)s?");
        assert!(r.is_match("I have cats"));
        assert!(r.is_match("one dog"));
        assert!(!r.is_match("bird"));
    }

    #[test]
    fn char_classes() {
        assert!(re("[abc]+").is_match("cab"));
        assert!(!re("^[abc]+$").is_match("abd"));
        assert!(re("[a-f0-9]+").is_match("deadbeef42"));
        assert!(re("[^0-9]").is_match("a"));
        assert!(!re("^[^0-9]+$").is_match("a1b"));
        assert!(re("[-x]").is_match("-"));
    }

    #[test]
    fn escapes() {
        assert!(re(r"\d{3}-\d{4}").is_match("call 555-1234 now"));
        assert!(re(r"\w+").is_match("hello_world9"));
        assert!(re(r"\s").is_match("a b"));
        assert!(!re(r"\S").is_match(" \t\n"));
        assert!(re(r"\.").is_match("a.b"));
        assert!(!re(r"\.").is_match("ab"));
    }

    #[test]
    fn anchors() {
        assert!(re("^abc").is_match("abcdef"));
        assert!(!re("^abc").is_match("xabc"));
        assert!(re("abc$").is_match("xyzabc"));
        assert!(!re("abc$").is_match("abcx"));
        assert!(re("^$").is_match(""));
        assert!(!re("^$").is_match("a"));
    }

    #[test]
    fn find_all_leftmost_longest() {
        let r = re("a+");
        assert_eq!(r.find_all("aa b aaa a"), vec![(0, 2), (5, 8), (9, 10)]);
    }

    #[test]
    fn find_all_no_overlap() {
        let r = re("aba");
        assert_eq!(r.find_all("ababa"), vec![(0, 3)]);
    }

    #[test]
    fn find_all_with_empty_match_progresses() {
        let r = re("a*");
        // Every position yields a match; empty matches advance by one.
        let matches = r.find_all("ba");
        assert_eq!(matches, vec![(0, 0), (1, 2), (2, 2)]);
    }

    #[test]
    fn email_like_pattern() {
        let r = re(r"[a-zA-Z0-9_]+@[a-z]+\.[a-z]{2,3}");
        assert_eq!(
            r.find_all("hi bob@mail.com and eve@x.org!"),
            vec![(3, 15), (20, 29)]
        );
    }

    #[test]
    fn pathological_pattern_is_fast() {
        // (a+)+b on "aaaa...a" blows up a backtracker; Thompson is linear.
        let r = re("(a+)+b");
        let text = "a".repeat(2_000);
        let start = std::time::Instant::now();
        assert!(!r.is_match(&text));
        assert!(
            start.elapsed().as_secs() < 5,
            "NFA simulation must not backtrack"
        );
    }

    #[test]
    fn parse_errors() {
        assert!(Regex::new("(abc").is_err());
        assert!(Regex::new("abc)").is_err());
        assert!(Regex::new("[abc").is_err());
        assert!(Regex::new("a{3,1}").is_err());
        assert!(Regex::new("*a").is_err());
        assert!(Regex::new(r"\q").is_err());
        assert!(Regex::new("[z-a]").is_err());
        assert!(Regex::new("a{").is_err());
        assert!(Regex::new("a{99999}").is_err());
    }

    #[test]
    fn nesting_past_the_cap_is_an_error_not_an_abort() {
        let nested = |depth: usize| format!("{}a{}", "(".repeat(depth), ")".repeat(depth));
        let e = Regex::new(&nested(200_000)).expect_err("nesting past the cap");
        assert_eq!(e.position, MAX_DEPTH);
        assert!(e.to_string().contains("nested deeper"), "{e}");
        assert!(Regex::new(&nested(MAX_DEPTH + 1)).is_err());
        let at_cap = re(&nested(MAX_DEPTH));
        assert_eq!(at_cap.find_all("baab"), vec![(1, 2), (2, 3)]);
        // Repetition inside every level builds the tallest tree the
        // grammar allows at the cap; it still compiles and matches.
        let starred = format!("{}a{}", "(".repeat(MAX_DEPTH), ")*".repeat(MAX_DEPTH));
        assert!(re(&starred).is_match("aaa"));
    }

    #[test]
    fn error_reports_position() {
        let e = Regex::new("ab[cd").expect_err("unclosed class");
        assert_eq!(e.position, 2);
        assert!(e.to_string().contains("offset 2"));
    }

    #[test]
    fn nested_repetition() {
        let r = re("^(ab){2,3}$");
        assert!(!r.is_match("ab"));
        assert!(r.is_match("abab"));
        assert!(r.is_match("ababab"));
        assert!(!r.is_match("abababab"));
    }

    #[test]
    fn leftmost_start_beats_an_earlier_shorter_match() {
        // At offset 2 the `b` branch (start 1) accepts first, but the
        // longer branch that started at 0 accepts later and is leftmost.
        assert_eq!(re("abc|b").find_all("abc"), vec![(0, 3)]);
        assert_eq!(re("abcd|bc").find_all("abcx"), vec![(1, 3)]);
        assert_eq!(re("a|a*b").find_all("aaab"), vec![(0, 4)]);
        assert_eq!(re("a|a*b").find_all("aaa"), vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn anchors_hold_only_at_text_edges_in_find_all() {
        assert_eq!(re("^a").find_all("aaa"), vec![(0, 1)]);
        assert_eq!(re("a$").find_all("aaa"), vec![(2, 3)]);
        assert_eq!(re("^").find_all("ab"), vec![(0, 0)]);
        assert_eq!(re("$").find_all("ab"), vec![(2, 2)]);
        assert_eq!(re("x*$").find_all("axx"), vec![(1, 3), (3, 3)]);
    }

    #[test]
    fn empty_match_right_after_a_match_is_found() {
        // The threads of the match ending at 2 reach the loop split
        // before the seed at 2 does; the seed's empty match still counts.
        assert_eq!(re("a*").find_all("aab"), vec![(0, 2), (2, 2), (3, 3)]);
        assert_eq!(re("(ab)*").find_all("abx"), vec![(0, 2), (2, 2), (3, 3)]);
    }

    #[test]
    fn find_all_is_linear_when_threads_outlive_a_match() {
        // Every `a` is a match, while the `a*b` thread that started at
        // 0 stays alive to the end. A search that restarted after each
        // match would re-read the rest of the text every time.
        let text = "a".repeat(50_000);
        let start = std::time::Instant::now();
        let matches = re("a|a*b").find_all(&text);
        assert_eq!(matches.len(), 50_000);
        assert_eq!(matches[49_999], (49_999, 50_000));
        assert!(
            start.elapsed().as_secs() < 5,
            "find_all must not rescan after a match"
        );
    }

    /// The per-start simulation this engine replaced: one NFA run from
    /// every offset, each keeping the longest end. Slow but plainly
    /// leftmost-longest, so it is the oracle for the single-pass scan.
    mod naive {
        use super::super::{Regex, State};

        fn add(
            re: &Regex,
            state: usize,
            list: &mut Vec<usize>,
            on: &mut [bool],
            pos: (bool, bool),
        ) {
            if on[state] {
                return;
            }
            on[state] = true;
            match &re.states[state] {
                State::Split { a, b } => {
                    add(re, *a, list, on, pos);
                    add(re, *b, list, on, pos);
                }
                State::AnchorStart { next } if pos.0 => add(re, *next, list, on, pos),
                State::AnchorEnd { next } if pos.1 => add(re, *next, list, on, pos),
                State::AnchorStart { .. } | State::AnchorEnd { .. } => {}
                _ => list.push(state),
            }
        }

        fn longest_from(re: &Regex, text: &[u8], from: usize) -> Option<usize> {
            let accepts =
                |list: &[usize]| list.iter().any(|&s| matches!(re.states[s], State::Accept));
            let mut list = Vec::new();
            let mut on = vec![false; re.states.len()];
            add(
                re,
                re.start,
                &mut list,
                &mut on,
                (from == 0, from == text.len()),
            );
            let mut last = accepts(&list).then_some(from);
            for pos in from..text.len() {
                let mut next = Vec::new();
                let mut on = vec![false; re.states.len()];
                for &s in &list {
                    if let State::Char { set, next: to } = &re.states[s] {
                        if set.contains(text[pos]) {
                            add(re, *to, &mut next, &mut on, (false, pos + 1 == text.len()));
                        }
                    }
                }
                list = next;
                if accepts(&list) {
                    last = Some(pos + 1);
                }
            }
            last
        }

        pub fn is_match(re: &Regex, text: &[u8]) -> bool {
            (0..=text.len()).any(|from| longest_from(re, text, from).is_some())
        }

        pub fn find_all(re: &Regex, text: &[u8]) -> Vec<(usize, usize)> {
            let mut matches = Vec::new();
            let mut from = 0;
            while from <= text.len() {
                match longest_from(re, text, from) {
                    Some(end) => {
                        matches.push((from, end));
                        from = if end == from { from + 1 } else { end };
                    }
                    None => from += 1,
                }
            }
            matches
        }
    }

    /// A random pattern over the whole grammar: classes, `.`, escapes,
    /// anchors, nested groups and alternation, every quantifier form.
    fn random_pattern(rng: &mut microfaas_sim::Rng, depth: u32) -> String {
        let branches = 1 + rng.index(3);
        let mut out = Vec::new();
        for _ in 0..branches {
            let mut branch = String::new();
            for _ in 0..rng.index(4) {
                let atom = match rng.index(if depth > 0 { 9 } else { 8 }) {
                    0..=4 => ["a", "b", "c"][rng.index(3)].to_string(),
                    5 => ".".to_string(),
                    6 => ["[ab]", "[^a]", "[a-c1]", r"\d", r"\w"][rng.index(5)].to_string(),
                    7 => {
                        branch.push_str(["^", "$"][rng.index(2)]);
                        continue;
                    }
                    _ => format!("({})", random_pattern(rng, depth - 1)),
                };
                let quantifier = match rng.index(10) {
                    0 => "*".to_string(),
                    1 => "+".to_string(),
                    2 => "?".to_string(),
                    3 => format!("{{{}}}", rng.index(3)),
                    4 => {
                        let min = rng.index(3);
                        format!("{{{min},{}}}", min + rng.index(3))
                    }
                    5 => format!("{{{},}}", rng.index(3)),
                    _ => String::new(),
                };
                branch.push_str(&atom);
                branch.push_str(&quantifier);
            }
            out.push(branch);
        }
        out.join("|")
    }

    #[test]
    fn single_pass_scan_agrees_with_per_start_runs() {
        let mut rng = microfaas_sim::Rng::new(15);
        let mut checked = 0;
        for _ in 0..4_000 {
            let pattern = random_pattern(&mut rng, 2);
            // A quantified group holding only an anchor, like `(^)*`, is
            // rightly rejected; every other generated pattern parses.
            let r = match Regex::new(&pattern) {
                Ok(r) => r,
                Err(e) if e.to_string().contains("cannot repeat an anchor") => continue,
                Err(e) => panic!("generated pattern /{pattern}/ must parse: {e}"),
            };
            checked += 1;
            let text: String = (0..rng.index(12))
                .map(|_| ['a', 'b', 'c', '1', '\n'][rng.index(5)])
                .collect();
            assert_eq!(
                r.find_all(&text),
                naive::find_all(&r, text.as_bytes()),
                "find_all /{pattern}/ on {text:?}"
            );
            assert_eq!(
                r.is_match(&text),
                naive::is_match(&r, text.as_bytes()),
                "is_match /{pattern}/ on {text:?}"
            );
        }
        assert!(checked > 3_500, "only {checked} generated patterns parsed");
    }

    #[test]
    fn class_with_escape_inside() {
        let r = re(r"[\d.]+");
        assert_eq!(r.find_all("ip 10.0.0.1 ok"), vec![(3, 11)]);
    }
}
