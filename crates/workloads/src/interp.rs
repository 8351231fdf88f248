//! A small scripting interpreter — the stand-in for the MicroPython
//! runtime that the paper's worker OS ships as its only userland.
//!
//! Real MicroFaaS users author functions in a scripting language; this
//! module provides that capability for the reproduction: a lexer,
//! recursive-descent parser, and tree-walking evaluator for an
//! expression-and-statement language with `let`, assignment, `if`/
//! `else`, `while`, and `return`, over integers, floats, booleans, and
//! strings. Builtins expose the platform's from-scratch kernels
//! (`sha256_hex`, `md5_hex`) plus the usual numeric/string helpers.
//!
//! Execution is metered by a **fuel** budget — the interpreter-level
//! analog of the platform's invocation timeout — so a hostile
//! `while true {}` cannot wedge a worker. Nesting deeper than
//! [`MAX_DEPTH`] is a parse error, so hostile source cannot overflow the
//! stack of the parser or the evaluator either.

use std::collections::BTreeMap;
use std::fmt;

use crate::algorithms::md5::md5;
use crate::algorithms::sha256::sha256;

/// The deepest nesting [`Script::compile`] accepts: of parentheses and
/// unary operators while parsing, of `if`/`while` blocks, and of the
/// expression tree an operator chain like `1 + 1 + …` builds. The
/// parser, the evaluator and the tree's drop each recurse once per
/// level, so deeper source would overflow the stack. Real scripts nest
/// a few levels.
pub const MAX_DEPTH: usize = 128;

/// A runtime value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// 64-bit integer.
    Int(i64),
    /// Double-precision float.
    Float(f64),
    /// Boolean.
    Bool(bool),
    /// UTF-8 string.
    Str(String),
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(n) => write!(f, "{n}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl Value {
    fn type_name(&self) -> &'static str {
        match self {
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Bool(_) => "bool",
            Value::Str(_) => "str",
        }
    }
}

/// Errors from compiling or running a script.
#[derive(Debug, Clone, PartialEq)]
pub enum ScriptError {
    /// Lexical or syntactic problem, with a human-readable description.
    Parse(String),
    /// The script referenced an unknown variable.
    UndefinedVariable(String),
    /// The script called an unknown builtin.
    UndefinedFunction(String),
    /// An operation received incompatible operand types.
    TypeMismatch(String),
    /// Integer division or modulo by zero.
    DivisionByZero,
    /// The fuel budget ran out (runaway loop).
    OutOfFuel,
}

impl fmt::Display for ScriptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScriptError::Parse(why) => write!(f, "parse error: {why}"),
            ScriptError::UndefinedVariable(name) => write!(f, "undefined variable '{name}'"),
            ScriptError::UndefinedFunction(name) => write!(f, "undefined function '{name}'"),
            ScriptError::TypeMismatch(why) => write!(f, "type mismatch: {why}"),
            ScriptError::DivisionByZero => write!(f, "division by zero"),
            ScriptError::OutOfFuel => write!(f, "fuel exhausted (runaway script?)"),
        }
    }
}

impl std::error::Error for ScriptError {}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Int(i64),
    Float(f64),
    Str(String),
    Ident(String),
    Keyword(&'static str),
    Op(&'static str),
    LParen,
    RParen,
    LBrace,
    RBrace,
    Comma,
    Semicolon,
}

const KEYWORDS: [&str; 9] = [
    "let", "if", "else", "while", "return", "true", "false", "and", "or",
];

fn lex(source: &str) -> Result<Vec<Token>, ScriptError> {
    let bytes = source.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\r' | '\n' => i += 1,
            '#' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '(' => {
                tokens.push(Token::LParen);
                i += 1;
            }
            ')' => {
                tokens.push(Token::RParen);
                i += 1;
            }
            '{' => {
                tokens.push(Token::LBrace);
                i += 1;
            }
            '}' => {
                tokens.push(Token::RBrace);
                i += 1;
            }
            ',' => {
                tokens.push(Token::Comma);
                i += 1;
            }
            ';' => {
                tokens.push(Token::Semicolon);
                i += 1;
            }
            '+' | '-' | '*' | '/' | '%' => {
                tokens.push(Token::Op(match c {
                    '+' => "+",
                    '-' => "-",
                    '*' => "*",
                    '/' => "/",
                    _ => "%",
                }));
                i += 1;
            }
            '=' | '!' | '<' | '>' => {
                let two = i + 1 < bytes.len() && bytes[i + 1] == b'=';
                let op = match (c, two) {
                    ('=', true) => "==",
                    ('=', false) => "=",
                    ('!', true) => "!=",
                    ('!', false) => "!",
                    ('<', true) => "<=",
                    ('<', false) => "<",
                    ('>', true) => ">=",
                    ('>', false) => ">",
                    _ => unreachable!("covered by the match arms"),
                };
                tokens.push(Token::Op(op));
                i += if two { 2 } else { 1 };
            }
            '"' => {
                let mut s = String::new();
                i += 1;
                loop {
                    if i >= bytes.len() {
                        return Err(ScriptError::Parse("unterminated string".into()));
                    }
                    match bytes[i] {
                        b'"' => {
                            i += 1;
                            break;
                        }
                        b'\\' if i + 1 < bytes.len() => {
                            s.push(match bytes[i + 1] {
                                b'n' => '\n',
                                b't' => '\t',
                                other => other as char,
                            });
                            i += 2;
                        }
                        other => {
                            s.push(other as char);
                            i += 1;
                        }
                    }
                }
                tokens.push(Token::Str(s));
            }
            '0'..='9' => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                if i < bytes.len() && bytes[i] == b'.' {
                    i += 1;
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                    let value: f64 = source[start..i].parse().map_err(|_| {
                        ScriptError::Parse(format!("bad float '{}'", &source[start..i]))
                    })?;
                    tokens.push(Token::Float(value));
                } else {
                    let value: i64 = source[start..i].parse().map_err(|_| {
                        ScriptError::Parse(format!("bad int '{}'", &source[start..i]))
                    })?;
                    tokens.push(Token::Int(value));
                }
            }
            'a'..='z' | 'A'..='Z' | '_' => {
                let start = i;
                while i < bytes.len()
                    && matches!(bytes[i], b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_')
                {
                    i += 1;
                }
                let word = &source[start..i];
                match KEYWORDS.iter().find(|&&k| k == word) {
                    Some(&keyword) => tokens.push(Token::Keyword(keyword)),
                    None => tokens.push(Token::Ident(word.to_string())),
                }
            }
            other => {
                return Err(ScriptError::Parse(format!(
                    "unexpected character '{other}'"
                )))
            }
        }
    }
    Ok(tokens)
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Expr {
    Literal(Value),
    Var(String),
    Unary(&'static str, Box<Expr>),
    Binary(&'static str, Box<Expr>, Box<Expr>),
    Call(String, Vec<Expr>),
}

#[derive(Debug, Clone, PartialEq)]
enum Stmt {
    Let(String, Expr),
    Assign(String, Expr),
    If(Expr, Vec<Stmt>, Vec<Stmt>),
    While(Expr, Vec<Stmt>),
    Return(Expr),
    Expr(Expr),
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Parentheses, unary operators and blocks open around `pos`.
    depth: usize,
}

/// A parsed expression and its height: the nodes on its longest path
/// to a leaf.
type Parsed = Result<(Expr, usize), ScriptError>;

fn too_deep() -> ScriptError {
    ScriptError::Parse(format!("nesting deeper than {MAX_DEPTH} levels"))
}

/// The height of a node over children at most `child` high, or an error
/// once the tree would be taller than [`MAX_DEPTH`].
fn taller(child: usize) -> Result<usize, ScriptError> {
    if child >= MAX_DEPTH {
        return Err(too_deep());
    }
    Ok(child + 1)
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Result<Token, ScriptError> {
        let token = self
            .tokens
            .get(self.pos)
            .cloned()
            .ok_or_else(|| ScriptError::Parse("unexpected end of script".into()))?;
        self.pos += 1;
        Ok(token)
    }

    fn expect(&mut self, token: &Token) -> Result<(), ScriptError> {
        let found = self.next()?;
        if &found == token {
            Ok(())
        } else {
            Err(ScriptError::Parse(format!(
                "expected {token:?}, found {found:?}"
            )))
        }
    }

    /// Runs `parse` one level deeper, failing before the recursion once
    /// [`MAX_DEPTH`] levels are open.
    fn nested<T>(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<T, ScriptError>,
    ) -> Result<T, ScriptError> {
        if self.depth == MAX_DEPTH {
            return Err(too_deep());
        }
        self.depth += 1;
        let parsed = parse(self);
        self.depth -= 1;
        parsed
    }

    fn block(&mut self) -> Result<Vec<Stmt>, ScriptError> {
        self.nested(Self::block_body)
    }

    fn block_body(&mut self) -> Result<Vec<Stmt>, ScriptError> {
        self.expect(&Token::LBrace)?;
        let mut statements = Vec::new();
        while self.peek() != Some(&Token::RBrace) {
            statements.push(self.statement()?);
        }
        self.expect(&Token::RBrace)?;
        Ok(statements)
    }

    fn statement(&mut self) -> Result<Stmt, ScriptError> {
        match self.peek() {
            Some(Token::Keyword("let")) => {
                self.pos += 1;
                let name = self.ident()?;
                self.expect(&Token::Op("="))?;
                let value = self.expression()?;
                self.expect(&Token::Semicolon)?;
                Ok(Stmt::Let(name, value))
            }
            Some(Token::Keyword("if")) => {
                self.pos += 1;
                let condition = self.expression()?;
                let then_block = self.block()?;
                let else_block = if self.peek() == Some(&Token::Keyword("else")) {
                    self.pos += 1;
                    if self.peek() == Some(&Token::Keyword("if")) {
                        vec![self.nested(Self::statement)?]
                    } else {
                        self.block()?
                    }
                } else {
                    Vec::new()
                };
                Ok(Stmt::If(condition, then_block, else_block))
            }
            Some(Token::Keyword("while")) => {
                self.pos += 1;
                let condition = self.expression()?;
                let body = self.block()?;
                Ok(Stmt::While(condition, body))
            }
            Some(Token::Keyword("return")) => {
                self.pos += 1;
                let value = self.expression()?;
                self.expect(&Token::Semicolon)?;
                Ok(Stmt::Return(value))
            }
            Some(Token::Ident(_)) if self.tokens.get(self.pos + 1) == Some(&Token::Op("=")) => {
                let name = self.ident()?;
                self.pos += 1; // '='
                let value = self.expression()?;
                self.expect(&Token::Semicolon)?;
                Ok(Stmt::Assign(name, value))
            }
            _ => {
                let expression = self.expression()?;
                self.expect(&Token::Semicolon)?;
                Ok(Stmt::Expr(expression))
            }
        }
    }

    fn ident(&mut self) -> Result<String, ScriptError> {
        match self.next()? {
            Token::Ident(name) => Ok(name),
            other => Err(ScriptError::Parse(format!(
                "expected identifier, found {other:?}"
            ))),
        }
    }

    fn expression(&mut self) -> Result<Expr, ScriptError> {
        Ok(self.subexpression()?.0)
    }

    // Precedence climbing: or < and < comparison < additive < multiplicative < unary.
    fn subexpression(&mut self) -> Parsed {
        self.nested(Self::or_expr)
    }

    fn or_expr(&mut self) -> Parsed {
        self.chain(Self::and_expr, true, |token| match token {
            Token::Keyword("or") => Some("or"),
            _ => None,
        })
    }

    fn and_expr(&mut self) -> Parsed {
        self.chain(Self::comparison, true, |token| match token {
            Token::Keyword("and") => Some("and"),
            _ => None,
        })
    }

    fn comparison(&mut self) -> Parsed {
        self.chain(Self::additive, false, |token| match token {
            Token::Op(op @ ("==" | "!=" | "<" | "<=" | ">" | ">=")) => Some(*op),
            _ => None,
        })
    }

    fn additive(&mut self) -> Parsed {
        self.chain(Self::multiplicative, true, |token| match token {
            Token::Op(op @ ("+" | "-")) => Some(*op),
            _ => None,
        })
    }

    fn multiplicative(&mut self) -> Parsed {
        self.chain(Self::unary, true, |token| match token {
            Token::Op(op @ ("*" | "/" | "%")) => Some(*op),
            _ => None,
        })
    }

    /// One left-associative precedence level: `operand (op operand)*`
    /// over the operators `op` accepts, or at most one `op` unless
    /// `repeat`. A long chain builds a tall tree without recursing, so
    /// its height is checked here.
    fn chain(
        &mut self,
        operand: fn(&mut Self) -> Parsed,
        repeat: bool,
        op: fn(&Token) -> Option<&'static str>,
    ) -> Parsed {
        let (mut left, mut height) = operand(self)?;
        while let Some(op) = self.peek().and_then(op) {
            self.pos += 1;
            let (right, right_height) = operand(self)?;
            height = taller(height.max(right_height))?;
            left = Expr::Binary(op, Box::new(left), Box::new(right));
            if !repeat {
                break;
            }
        }
        Ok((left, height))
    }

    fn unary(&mut self) -> Parsed {
        let op = match self.peek() {
            Some(Token::Op(op @ ("-" | "!"))) => *op,
            _ => return self.primary(),
        };
        self.pos += 1;
        let (inner, height) = self.nested(Self::unary)?;
        Ok((Expr::Unary(op, Box::new(inner)), taller(height)?))
    }

    fn primary(&mut self) -> Parsed {
        let leaf = |expr| Ok((expr, 1));
        match self.next()? {
            Token::Int(n) => leaf(Expr::Literal(Value::Int(n))),
            Token::Float(x) => leaf(Expr::Literal(Value::Float(x))),
            Token::Str(s) => leaf(Expr::Literal(Value::Str(s))),
            Token::Keyword("true") => leaf(Expr::Literal(Value::Bool(true))),
            Token::Keyword("false") => leaf(Expr::Literal(Value::Bool(false))),
            Token::LParen => {
                let inner = self.subexpression()?;
                self.expect(&Token::RParen)?;
                Ok(inner)
            }
            Token::Ident(name) => {
                if self.peek() == Some(&Token::LParen) {
                    self.pos += 1;
                    let mut args = Vec::new();
                    let mut height = 0;
                    if self.peek() != Some(&Token::RParen) {
                        loop {
                            let (arg, arg_height) = self.subexpression()?;
                            args.push(arg);
                            height = height.max(arg_height);
                            match self.next()? {
                                Token::Comma => continue,
                                Token::RParen => break,
                                other => {
                                    return Err(ScriptError::Parse(format!(
                                        "expected ',' or ')', found {other:?}"
                                    )))
                                }
                            }
                        }
                    } else {
                        self.pos += 1; // ')'
                    }
                    Ok((Expr::Call(name, args), taller(height)?))
                } else {
                    leaf(Expr::Var(name))
                }
            }
            other => Err(ScriptError::Parse(format!("unexpected token {other:?}"))),
        }
    }
}

// ---------------------------------------------------------------------------
// Evaluator
// ---------------------------------------------------------------------------

/// A compiled script, ready to run repeatedly.
///
/// # Examples
///
/// ```
/// use microfaas_workloads::interp::{Script, Value};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let script = Script::compile(
///     "let total = 0;
///      let i = 1;
///      while i <= 10 {
///          total = total + i;
///          i = i + 1;
///      }
///      return total;",
/// )?;
/// assert_eq!(script.run(100_000)?, Value::Int(55));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Script {
    statements: Vec<Stmt>,
}

enum Flow {
    Normal,
    Returned(Value),
}

struct Interpreter {
    variables: BTreeMap<String, Value>,
    fuel: u64,
}

impl Script {
    /// Lexes and parses `source`.
    ///
    /// # Errors
    ///
    /// Returns [`ScriptError::Parse`] describing the first problem,
    /// including nesting deeper than [`MAX_DEPTH`].
    pub fn compile(source: &str) -> Result<Script, ScriptError> {
        let tokens = lex(source)?;
        let mut parser = Parser {
            tokens,
            pos: 0,
            depth: 0,
        };
        let mut statements = Vec::new();
        while parser.peek().is_some() {
            statements.push(parser.statement()?);
        }
        Ok(Script { statements })
    }

    /// Runs the script with the given fuel budget; every statement and
    /// expression node costs one unit.
    ///
    /// # Errors
    ///
    /// Returns any [`ScriptError`] the script raises;
    /// [`ScriptError::OutOfFuel`] when the budget runs out.
    pub fn run(&self, fuel: u64) -> Result<Value, ScriptError> {
        self.run_with_inputs(fuel, &BTreeMap::new())
    }

    /// Runs with pre-bound input variables (the invocation payload).
    ///
    /// # Errors
    ///
    /// Same as [`Self::run`].
    pub fn run_with_inputs(
        &self,
        fuel: u64,
        inputs: &BTreeMap<String, Value>,
    ) -> Result<Value, ScriptError> {
        let mut interpreter = Interpreter {
            variables: inputs.clone(),
            fuel,
        };
        for statement in &self.statements {
            if let Flow::Returned(value) = interpreter.execute(statement)? {
                return Ok(value);
            }
        }
        Ok(Value::Int(0))
    }
}

impl Interpreter {
    fn burn(&mut self) -> Result<(), ScriptError> {
        if self.fuel == 0 {
            return Err(ScriptError::OutOfFuel);
        }
        self.fuel -= 1;
        Ok(())
    }

    fn execute(&mut self, statement: &Stmt) -> Result<Flow, ScriptError> {
        self.burn()?;
        match statement {
            Stmt::Let(name, expression) | Stmt::Assign(name, expression) => {
                let value = self.eval(expression)?;
                self.variables.insert(name.clone(), value);
                Ok(Flow::Normal)
            }
            Stmt::If(condition, then_block, else_block) => {
                let branch = if self.truthy(condition)? {
                    then_block
                } else {
                    else_block
                };
                for statement in branch {
                    if let Flow::Returned(value) = self.execute(statement)? {
                        return Ok(Flow::Returned(value));
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::While(condition, body) => {
                while self.truthy(condition)? {
                    for statement in body {
                        if let Flow::Returned(value) = self.execute(statement)? {
                            return Ok(Flow::Returned(value));
                        }
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Return(expression) => Ok(Flow::Returned(self.eval(expression)?)),
            Stmt::Expr(expression) => {
                self.eval(expression)?;
                Ok(Flow::Normal)
            }
        }
    }

    fn truthy(&mut self, condition: &Expr) -> Result<bool, ScriptError> {
        match self.eval(condition)? {
            Value::Bool(b) => Ok(b),
            other => Err(ScriptError::TypeMismatch(format!(
                "condition must be bool, got {}",
                other.type_name()
            ))),
        }
    }

    fn eval(&mut self, expression: &Expr) -> Result<Value, ScriptError> {
        self.burn()?;
        match expression {
            Expr::Literal(value) => Ok(value.clone()),
            Expr::Var(name) => self
                .variables
                .get(name)
                .cloned()
                .ok_or_else(|| ScriptError::UndefinedVariable(name.clone())),
            Expr::Unary(op, inner) => {
                let value = self.eval(inner)?;
                match (*op, value) {
                    ("-", Value::Int(n)) => Ok(Value::Int(-n)),
                    ("-", Value::Float(x)) => Ok(Value::Float(-x)),
                    ("!", Value::Bool(b)) => Ok(Value::Bool(!b)),
                    (op, value) => Err(ScriptError::TypeMismatch(format!(
                        "cannot apply '{op}' to {}",
                        value.type_name()
                    ))),
                }
            }
            Expr::Binary(op, left, right) => {
                // Short-circuit logic first.
                if *op == "and" || *op == "or" {
                    let lhs = match self.eval(left)? {
                        Value::Bool(b) => b,
                        other => {
                            return Err(ScriptError::TypeMismatch(format!(
                                "'{op}' needs bools, got {}",
                                other.type_name()
                            )))
                        }
                    };
                    if (*op == "and" && !lhs) || (*op == "or" && lhs) {
                        return Ok(Value::Bool(lhs));
                    }
                    return match self.eval(right)? {
                        Value::Bool(b) => Ok(Value::Bool(b)),
                        other => Err(ScriptError::TypeMismatch(format!(
                            "'{op}' needs bools, got {}",
                            other.type_name()
                        ))),
                    };
                }
                let lhs = self.eval(left)?;
                let rhs = self.eval(right)?;
                binary_op(op, lhs, rhs)
            }
            Expr::Call(name, args) => {
                let mut values = Vec::with_capacity(args.len());
                for arg in args {
                    values.push(self.eval(arg)?);
                }
                call_builtin(name, values)
            }
        }
    }
}

fn binary_op(op: &str, lhs: Value, rhs: Value) -> Result<Value, ScriptError> {
    use Value::{Bool, Float, Int, Str};
    Ok(match (op, lhs, rhs) {
        ("+", Int(a), Int(b)) => Int(a.wrapping_add(b)),
        ("-", Int(a), Int(b)) => Int(a.wrapping_sub(b)),
        ("*", Int(a), Int(b)) => Int(a.wrapping_mul(b)),
        ("/", Int(_), Int(0)) | ("%", Int(_), Int(0)) => return Err(ScriptError::DivisionByZero),
        ("/", Int(a), Int(b)) => Int(a.wrapping_div(b)),
        ("%", Int(a), Int(b)) => Int(a.wrapping_rem(b)),
        ("+", Float(a), Float(b)) => Float(a + b),
        ("-", Float(a), Float(b)) => Float(a - b),
        ("*", Float(a), Float(b)) => Float(a * b),
        ("/", Float(a), Float(b)) => Float(a / b),
        // Int/float promotion.
        (op, Int(a), Float(b)) => return binary_op(op, Float(a as f64), Float(b)),
        (op, Float(a), Int(b)) => return binary_op(op, Float(a), Float(b as f64)),
        ("+", Str(a), Str(b)) => Str(a + &b),
        ("==", a, b) => Bool(a == b),
        ("!=", a, b) => Bool(a != b),
        ("<", Int(a), Int(b)) => Bool(a < b),
        ("<=", Int(a), Int(b)) => Bool(a <= b),
        (">", Int(a), Int(b)) => Bool(a > b),
        (">=", Int(a), Int(b)) => Bool(a >= b),
        ("<", Float(a), Float(b)) => Bool(a < b),
        ("<=", Float(a), Float(b)) => Bool(a <= b),
        (">", Float(a), Float(b)) => Bool(a > b),
        (">=", Float(a), Float(b)) => Bool(a >= b),
        ("<" | "<=" | ">" | ">=", Str(a), Str(b)) => {
            let ordering = a.cmp(&b);
            Bool(match op {
                "<" => ordering.is_lt(),
                "<=" => ordering.is_le(),
                ">" => ordering.is_gt(),
                _ => ordering.is_ge(),
            })
        }
        (op, lhs, rhs) => {
            return Err(ScriptError::TypeMismatch(format!(
                "cannot apply '{op}' to {} and {}",
                lhs.type_name(),
                rhs.type_name()
            )))
        }
    })
}

fn call_builtin(name: &str, mut args: Vec<Value>) -> Result<Value, ScriptError> {
    let arity_error = |expected: usize, got: usize| {
        ScriptError::TypeMismatch(format!(
            "{name}() expects {expected} argument(s), got {got}"
        ))
    };
    let one = |args: &mut Vec<Value>| -> Result<Value, ScriptError> {
        if args.len() != 1 {
            return Err(arity_error(1, args.len()));
        }
        Ok(args.remove(0))
    };
    match name {
        "sha256_hex" => match one(&mut args)? {
            Value::Str(s) => Ok(Value::Str(hex(&sha256(s.as_bytes())))),
            other => Err(ScriptError::TypeMismatch(format!(
                "sha256_hex() needs a str, got {}",
                other.type_name()
            ))),
        },
        "md5_hex" => match one(&mut args)? {
            Value::Str(s) => Ok(Value::Str(hex(&md5(s.as_bytes())))),
            other => Err(ScriptError::TypeMismatch(format!(
                "md5_hex() needs a str, got {}",
                other.type_name()
            ))),
        },
        "len" => match one(&mut args)? {
            Value::Str(s) => Ok(Value::Int(s.len() as i64)),
            other => Err(ScriptError::TypeMismatch(format!(
                "len() needs a str, got {}",
                other.type_name()
            ))),
        },
        "str" => Ok(Value::Str(one(&mut args)?.to_string())),
        "int" => match one(&mut args)? {
            Value::Int(n) => Ok(Value::Int(n)),
            Value::Float(x) => Ok(Value::Int(x as i64)),
            Value::Bool(b) => Ok(Value::Int(b as i64)),
            Value::Str(s) => s
                .trim()
                .parse()
                .map(Value::Int)
                .map_err(|_| ScriptError::TypeMismatch(format!("int() cannot parse '{s}'"))),
        },
        "float" => match one(&mut args)? {
            Value::Int(n) => Ok(Value::Float(n as f64)),
            Value::Float(x) => Ok(Value::Float(x)),
            other => Err(ScriptError::TypeMismatch(format!(
                "float() needs a number, got {}",
                other.type_name()
            ))),
        },
        "sqrt" | "sin" | "cos" | "tan" | "abs" => {
            let x = match one(&mut args)? {
                Value::Int(n) => n as f64,
                Value::Float(x) => x,
                other => {
                    return Err(ScriptError::TypeMismatch(format!(
                        "{name}() needs a number, got {}",
                        other.type_name()
                    )))
                }
            };
            Ok(Value::Float(match name {
                "sqrt" => x.sqrt(),
                "sin" => x.sin(),
                "cos" => x.cos(),
                "tan" => x.tan(),
                _ => x.abs(),
            }))
        }
        other => Err(ScriptError::UndefinedFunction(other.to_string())),
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval(source: &str) -> Value {
        Script::compile(source)
            .expect("compiles")
            .run(1_000_000)
            .expect("runs")
    }

    #[test]
    fn arithmetic_and_precedence() {
        assert_eq!(eval("return 2 + 3 * 4;"), Value::Int(14));
        assert_eq!(eval("return (2 + 3) * 4;"), Value::Int(20));
        assert_eq!(eval("return 10 % 3;"), Value::Int(1));
        assert_eq!(eval("return -5 + 2;"), Value::Int(-3));
        assert_eq!(eval("return 1.5 * 2;"), Value::Float(3.0));
    }

    #[test]
    fn variables_and_reassignment() {
        assert_eq!(eval("let x = 3; x = x * x; return x + 1;"), Value::Int(10));
    }

    #[test]
    fn while_loop_accumulates() {
        let source = "
            let total = 0;
            let i = 1;
            while i <= 100 {
                total = total + i;
                i = i + 1;
            }
            return total;
        ";
        assert_eq!(eval(source), Value::Int(5_050));
    }

    #[test]
    fn if_else_chains() {
        let source = "
            let n = 7;
            if n % 2 == 0 {
                return \"even\";
            } else if n < 0 {
                return \"negative\";
            } else {
                return \"odd\";
            }
        ";
        assert_eq!(eval(source), Value::Str("odd".to_string()));
    }

    #[test]
    fn logic_short_circuits() {
        // The right operand would divide by zero; 'and' must not reach it.
        assert_eq!(eval("return false and 1 / 0 == 0;"), Value::Bool(false));
        assert_eq!(eval("return true or 1 / 0 == 0;"), Value::Bool(true));
        assert_eq!(eval("return !false;"), Value::Bool(true));
    }

    #[test]
    fn string_operations() {
        assert_eq!(
            eval("return \"micro\" + \"faas\";"),
            Value::Str("microfaas".to_string())
        );
        assert_eq!(eval("return len(\"hello\");"), Value::Int(5));
        assert_eq!(
            eval("return str(42) + \"!\";"),
            Value::Str("42!".to_string())
        );
        assert_eq!(eval("return int(\"17\") + 1;"), Value::Int(18));
    }

    #[test]
    fn crypto_builtins_match_the_kernels() {
        assert_eq!(
            eval("return sha256_hex(\"abc\");"),
            Value::Str(
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad".to_string()
            )
        );
        assert_eq!(
            eval("return md5_hex(\"abc\");"),
            Value::Str("900150983cd24fb0d6963f7d28e17f72".to_string())
        );
    }

    #[test]
    fn cascading_hash_script_matches_native_kernel() {
        // A user-authored CascSHA: chain two rounds by concatenation and
        // compare against the native construction's behaviour.
        let source = "
            let input = \"microfaas\";
            let digest = sha256_hex(input);
            let rounds = 1;
            while rounds < 5 {
                digest = sha256_hex(digest + input);
                rounds = rounds + 1;
            }
            return digest;
        ";
        let scripted = eval(source);
        // Independently compute the same chain natively (over hex text).
        let mut digest = hex(&sha256(b"microfaas"));
        for _ in 1..5 {
            digest = hex(&sha256(format!("{digest}microfaas").as_bytes()));
        }
        assert_eq!(scripted, Value::Str(digest));
    }

    #[test]
    fn fuel_stops_infinite_loops() {
        let script = Script::compile("while true { let x = 1; }").expect("compiles");
        assert_eq!(script.run(10_000), Err(ScriptError::OutOfFuel));
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        // The statement's expression is the first level.
        let parens = |n: usize| format!("return {}1{};", "(".repeat(n), ")".repeat(n));
        let negations = |n: usize| format!("return {}1;", "-".repeat(n));
        let chain = |n: usize| format!("return {}1;", "1 + ".repeat(n));
        let blocks = |n: usize| format!("{}return 1;{}", "if true { ".repeat(n), "}".repeat(n));
        for shape in [parens, negations, chain, blocks] {
            assert!(Script::compile(&shape(MAX_DEPTH - 1)).is_ok());
            let err = Script::compile(&shape(MAX_DEPTH)).expect_err("past the cap");
            assert!(err.to_string().contains("nesting"), "{err}");
        }
        // The cap is on depth, not size: long flat scripts still compile.
        let flat = "let x = 1; ".repeat(10_000) + "return (x + 1) * (x - 1);";
        assert_eq!(eval(&flat), Value::Int(0));
    }

    #[test]
    fn inputs_are_bound_as_variables() {
        let script = Script::compile("return payload + payload;").expect("compiles");
        let mut inputs = BTreeMap::new();
        inputs.insert("payload".to_string(), Value::Str("ab".to_string()));
        assert_eq!(
            script.run_with_inputs(100, &inputs).expect("runs"),
            Value::Str("abab".to_string())
        );
    }

    #[test]
    fn runtime_errors() {
        let run = |src: &str| Script::compile(src).expect("compiles").run(10_000);
        assert_eq!(run("return 1 / 0;"), Err(ScriptError::DivisionByZero));
        assert_eq!(
            run("return nope;"),
            Err(ScriptError::UndefinedVariable("nope".to_string()))
        );
        assert_eq!(
            run("return frob(1);"),
            Err(ScriptError::UndefinedFunction("frob".to_string()))
        );
        assert!(matches!(
            run("return 1 + \"x\";"),
            Err(ScriptError::TypeMismatch(_))
        ));
        assert!(matches!(run("if 1 { }"), Err(ScriptError::TypeMismatch(_))));
    }

    #[test]
    fn parse_errors() {
        assert!(Script::compile("let = 3;").is_err());
        assert!(Script::compile("return 1").is_err(), "missing semicolon");
        assert!(Script::compile("while true").is_err(), "missing block");
        assert!(Script::compile("return \"unterminated;").is_err());
        assert!(Script::compile("return 1 @ 2;").is_err());
    }

    #[test]
    fn comments_are_ignored() {
        assert_eq!(eval("# setup\nlet x = 1; # one\nreturn x;"), Value::Int(1));
    }

    #[test]
    fn script_without_return_yields_zero() {
        assert_eq!(eval("let x = 5;"), Value::Int(0));
    }

    #[test]
    fn float_ops_script_mirrors_the_workload() {
        // The FloatOps kernel body, authored as a user script.
        let source = "
            let acc = 0.0;
            let i = 0;
            while i < 100 {
                let x = (float(i) + 1.0) * 0.001;
                acc = acc + sqrt(abs(sin(x) + cos(x) + tan(x)));
                i = i + 1;
            }
            return acc;
        ";
        let scripted = match eval(source) {
            Value::Float(x) => x,
            other => panic!("expected float, got {other:?}"),
        };
        let native = crate::algorithms::numeric::float_ops(100);
        assert!(
            (scripted - native).abs() < 1e-9,
            "scripted {scripted} vs native {native}"
        );
    }
}
