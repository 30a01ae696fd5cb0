//! The mini-CU abstract syntax tree and its pretty-printer (which doubles
//! as the code generator for transformed programs).

use std::fmt;

/// A scalar or pointer type.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Type {
    /// `void`
    Void,
    /// `int`
    Int,
    /// `unsigned int`
    Uint,
    /// `float`
    Float,
    /// `bool`
    Bool,
    /// Pointer to another type.
    Ptr(Box<Type>),
}

impl Type {
    /// A pointer to this type.
    #[must_use]
    pub fn ptr(self) -> Type {
        Type::Ptr(Box::new(self))
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Void => f.write_str("void"),
            Type::Int => f.write_str("int"),
            Type::Uint => f.write_str("unsigned int"),
            Type::Float => f.write_str("float"),
            Type::Bool => f.write_str("bool"),
            Type::Ptr(inner) => write!(f, "{inner}*"),
        }
    }
}

/// CUDA built-in values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Builtin {
    /// `threadIdx.x`
    ThreadIdxX,
    /// `threadIdx.y`
    ThreadIdxY,
    /// `blockIdx.x`
    BlockIdxX,
    /// `blockIdx.y`
    BlockIdxY,
    /// `blockDim.x`
    BlockDimX,
    /// `blockDim.y`
    BlockDimY,
    /// `gridDim.x`
    GridDimX,
    /// The `%smid` special register, surfaced as the `__smid()` intrinsic
    /// in generated code (the paper reads it via inline PTX).
    SmId,
}

impl Builtin {
    /// The source form of the builtin.
    #[must_use]
    pub fn as_str(&self) -> &'static str {
        match self {
            Builtin::ThreadIdxX => "threadIdx.x",
            Builtin::ThreadIdxY => "threadIdx.y",
            Builtin::BlockIdxX => "blockIdx.x",
            Builtin::BlockIdxY => "blockIdx.y",
            Builtin::BlockDimX => "blockDim.x",
            Builtin::BlockDimY => "blockDim.y",
            Builtin::GridDimX => "gridDim.x",
            Builtin::SmId => "__smid()",
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// `-x`
    Neg,
    /// `!x`
    Not,
    /// `*x`
    Deref,
    /// `&x`
    AddrOf,
    /// `++x`
    PreInc,
    /// `--x`
    PreDec,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `<=`
    Le,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `&`
    BitAnd,
    /// `|`
    BitOr,
    /// `^`
    BitXor,
    /// `&&`
    And,
    /// `||`
    Or,
}

impl BinOp {
    /// Operator precedence (higher binds tighter).
    #[must_use]
    pub fn precedence(&self) -> u8 {
        match self {
            BinOp::Mul | BinOp::Div | BinOp::Rem => 10,
            BinOp::Add | BinOp::Sub => 9,
            BinOp::Shl | BinOp::Shr => 8,
            BinOp::Lt | BinOp::Gt | BinOp::Le | BinOp::Ge => 7,
            BinOp::Eq | BinOp::Ne => 6,
            BinOp::BitAnd => 5,
            BinOp::BitXor => 4,
            BinOp::BitOr => 3,
            BinOp::And => 2,
            BinOp::Or => 1,
        }
    }

    /// The source form of the operator.
    #[must_use]
    pub fn as_str(&self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::Shl => "<<",
            BinOp::Shr => ">>",
            BinOp::Lt => "<",
            BinOp::Gt => ">",
            BinOp::Le => "<=",
            BinOp::Ge => ">=",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::BitAnd => "&",
            BinOp::BitOr => "|",
            BinOp::BitXor => "^",
            BinOp::And => "&&",
            BinOp::Or => "||",
        }
    }
}

/// Assignment operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssignOp {
    /// `=`
    Assign,
    /// `+=`
    Add,
    /// `-=`
    Sub,
    /// `*=`
    Mul,
    /// `/=`
    Div,
}

impl AssignOp {
    /// The source form of the operator.
    #[must_use]
    pub fn as_str(&self) -> &'static str {
        match self {
            AssignOp::Assign => "=",
            AssignOp::Add => "+=",
            AssignOp::Sub => "-=",
            AssignOp::Mul => "*=",
            AssignOp::Div => "/=",
        }
    }
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Boolean literal.
    Bool(bool),
    /// Variable reference.
    Ident(String),
    /// CUDA builtin.
    Builtin(Builtin),
    /// Unary operation.
    Unary {
        /// The operator.
        op: UnOp,
        /// The operand.
        expr: Box<Expr>,
    },
    /// Binary operation.
    Binary {
        /// The operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Function call.
    Call {
        /// Callee name.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// Array indexing.
    Index {
        /// Indexed expression.
        base: Box<Expr>,
        /// Index expression.
        index: Box<Expr>,
    },
    /// `cond ? a : b`
    Ternary {
        /// Condition.
        cond: Box<Expr>,
        /// Value when true.
        then_expr: Box<Expr>,
        /// Value when false.
        else_expr: Box<Expr>,
    },
}

impl Expr {
    /// Convenience: a variable reference.
    #[must_use]
    pub fn ident(name: impl Into<String>) -> Expr {
        Expr::Ident(name.into())
    }

    /// Convenience: a binary expression.
    #[must_use]
    pub fn bin(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }

    /// Convenience: a call.
    #[must_use]
    pub fn call(name: impl Into<String>, args: Vec<Expr>) -> Expr {
        Expr::Call {
            name: name.into(),
            args,
        }
    }

    /// Convenience: a dereference.
    #[must_use]
    pub fn deref(e: Expr) -> Expr {
        Expr::Unary {
            op: UnOp::Deref,
            expr: Box::new(e),
        }
    }

    /// Recursively replaces every occurrence of a builtin with `to`.
    /// Returns the number of replacements — the compiler passes use this to
    /// verify the transform touched what it expected.
    pub fn replace_builtin(&mut self, from: Builtin, to: &Expr) -> usize {
        match self {
            Expr::Builtin(b) if *b == from => {
                *self = to.clone();
                1
            }
            Expr::Unary { expr, .. } => expr.replace_builtin(from, to),
            Expr::Binary { lhs, rhs, .. } => {
                lhs.replace_builtin(from, to) + rhs.replace_builtin(from, to)
            }
            Expr::Call { args, .. } => args.iter_mut().map(|a| a.replace_builtin(from, to)).sum(),
            Expr::Index { base, index } => {
                base.replace_builtin(from, to) + index.replace_builtin(from, to)
            }
            Expr::Ternary {
                cond,
                then_expr,
                else_expr,
            } => {
                cond.replace_builtin(from, to)
                    + then_expr.replace_builtin(from, to)
                    + else_expr.replace_builtin(from, to)
            }
            _ => 0,
        }
    }
}

/// A statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// A local declaration, possibly `__shared__` and possibly an array.
    Decl {
        /// Variable name.
        name: String,
        /// Element type.
        ty: Type,
        /// Whether the declaration is `__shared__`.
        shared: bool,
        /// Whether the declaration is `volatile`.
        volatile: bool,
        /// Array length for array declarations.
        array_len: Option<u64>,
        /// Optional initializer.
        init: Option<Expr>,
    },
    /// An expression statement.
    Expr(Expr),
    /// Assignment.
    Assign {
        /// The assigned-to place expression.
        target: Expr,
        /// The assignment operator.
        op: AssignOp,
        /// The value.
        value: Expr,
    },
    /// `if` / `else`.
    If {
        /// Condition.
        cond: Expr,
        /// Then branch.
        then_block: Block,
        /// Optional else branch.
        else_block: Option<Block>,
    },
    /// `while` loop.
    While {
        /// Condition.
        cond: Expr,
        /// Body.
        body: Block,
    },
    /// `for` loop.
    For {
        /// Init statement (declaration or assignment).
        init: Option<Box<Stmt>>,
        /// Condition.
        cond: Option<Expr>,
        /// Step statement.
        step: Option<Box<Stmt>>,
        /// Body.
        body: Block,
    },
    /// `return`, optionally with a value.
    Return(Option<Expr>),
    /// `break;`
    Break,
    /// `continue;`
    Continue,
    /// A nested block.
    Block(Block),
    /// A kernel launch: `name<<<grid, block>>>(args);` — host code only.
    Launch {
        /// The kernel name.
        kernel: String,
        /// Grid-dimension expression.
        grid: Expr,
        /// Block-dimension expression.
        block: Expr,
        /// Kernel arguments.
        args: Vec<Expr>,
    },
}

/// A sequence of statements.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Block {
    /// The statements.
    pub stmts: Vec<Stmt>,
}

impl Block {
    /// Creates a block from statements.
    #[must_use]
    pub fn new(stmts: Vec<Stmt>) -> Self {
        Block { stmts }
    }

    /// Recursively replaces a builtin throughout the block, returning the
    /// replacement count.
    pub fn replace_builtin(&mut self, from: Builtin, to: &Expr) -> usize {
        self.stmts
            .iter_mut()
            .map(|s| replace_in_stmt(s, from, to))
            .sum()
    }

    /// True when any statement (recursively) is a `return`.
    #[must_use]
    pub fn contains_return(&self) -> bool {
        self.stmts.iter().any(stmt_contains_return)
    }
}

fn replace_in_stmt(stmt: &mut Stmt, from: Builtin, to: &Expr) -> usize {
    match stmt {
        Stmt::Decl { init, .. } => init.as_mut().map_or(0, |e| e.replace_builtin(from, to)),
        Stmt::Expr(e) => e.replace_builtin(from, to),
        Stmt::Assign { target, value, .. } => {
            target.replace_builtin(from, to) + value.replace_builtin(from, to)
        }
        Stmt::If {
            cond,
            then_block,
            else_block,
        } => {
            cond.replace_builtin(from, to)
                + then_block.replace_builtin(from, to)
                + else_block
                    .as_mut()
                    .map_or(0, |b| b.replace_builtin(from, to))
        }
        Stmt::While { cond, body } => {
            cond.replace_builtin(from, to) + body.replace_builtin(from, to)
        }
        Stmt::For {
            init,
            cond,
            step,
            body,
        } => {
            init.as_mut().map_or(0, |s| replace_in_stmt(s, from, to))
                + cond.as_mut().map_or(0, |e| e.replace_builtin(from, to))
                + step.as_mut().map_or(0, |s| replace_in_stmt(s, from, to))
                + body.replace_builtin(from, to)
        }
        Stmt::Return(e) => e.as_mut().map_or(0, |e| e.replace_builtin(from, to)),
        Stmt::Break | Stmt::Continue => 0,
        Stmt::Block(b) => b.replace_builtin(from, to),
        Stmt::Launch {
            grid, block, args, ..
        } => {
            grid.replace_builtin(from, to)
                + block.replace_builtin(from, to)
                + args
                    .iter_mut()
                    .map(|a| a.replace_builtin(from, to))
                    .sum::<usize>()
        }
    }
}

fn stmt_contains_return(stmt: &Stmt) -> bool {
    match stmt {
        Stmt::Return(_) => true,
        Stmt::If {
            then_block,
            else_block,
            ..
        } => {
            then_block.contains_return() || else_block.as_ref().is_some_and(Block::contains_return)
        }
        Stmt::While { body, .. } | Stmt::For { body, .. } => body.contains_return(),
        Stmt::Block(b) => b.contains_return(),
        _ => false,
    }
}

/// Function flavor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FnKind {
    /// `__global__` — a GPU kernel.
    Global,
    /// `__device__` — a GPU-side helper.
    Device,
    /// Plain host function.
    Host,
}

/// A function parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Parameter name.
    pub name: String,
    /// Parameter type.
    pub ty: Type,
    /// Whether declared `volatile` (the pinned flag pointers are).
    pub volatile: bool,
}

/// A function definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Kind (`__global__`, `__device__`, host).
    pub kind: FnKind,
    /// Return type.
    pub ret: Type,
    /// Function name.
    pub name: String,
    /// Parameters.
    pub params: Vec<Param>,
    /// Body.
    pub body: Block,
}

/// A whole translation unit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Program {
    /// Top-level functions in source order.
    pub functions: Vec<Function>,
}

impl Program {
    /// Finds a function by name.
    #[must_use]
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Iterates over the `__global__` kernels.
    pub fn kernels(&self) -> impl Iterator<Item = &Function> {
        self.functions.iter().filter(|f| f.kind == FnKind::Global)
    }
}

// ---------------------------------------------------------------------------
// Pretty printing (code generation).
// ---------------------------------------------------------------------------

struct Printer {
    out: String,
    indent: usize,
}

impl Printer {
    fn line(&mut self, text: &str) {
        for _ in 0..self.indent {
            self.out.push_str("    ");
        }
        self.out.push_str(text);
        self.out.push('\n');
    }

    fn expr(e: &Expr) -> String {
        Self::expr_prec(e, 0)
    }

    fn expr_prec(e: &Expr, parent_prec: u8) -> String {
        match e {
            Expr::Int(v) => v.to_string(),
            Expr::Float(v) => {
                if v.fract() == 0.0 && v.is_finite() {
                    format!("{v:.1}f")
                } else {
                    format!("{v}f")
                }
            }
            Expr::Bool(b) => b.to_string(),
            Expr::Ident(name) => name.clone(),
            Expr::Builtin(b) => b.as_str().to_string(),
            Expr::Unary { op, expr } => {
                let inner = Self::expr_prec(expr, 11);
                let s = match op {
                    UnOp::Neg => format!("-{inner}"),
                    UnOp::Not => format!("!{inner}"),
                    UnOp::Deref => format!("*{inner}"),
                    UnOp::AddrOf => format!("&{inner}"),
                    UnOp::PreInc => format!("++{inner}"),
                    UnOp::PreDec => format!("--{inner}"),
                };
                if parent_prec > 10 {
                    format!("({s})")
                } else {
                    s
                }
            }
            Expr::Binary { op, lhs, rhs } => {
                let p = op.precedence();
                let s = format!(
                    "{} {} {}",
                    Self::expr_prec(lhs, p),
                    op.as_str(),
                    Self::expr_prec(rhs, p + 1)
                );
                if p < parent_prec {
                    format!("({s})")
                } else {
                    s
                }
            }
            Expr::Call { name, args } => {
                let args: Vec<String> = args.iter().map(Self::expr).collect();
                format!("{name}({})", args.join(", "))
            }
            Expr::Index { base, index } => {
                format!("{}[{}]", Self::expr_prec(base, 11), Self::expr(index))
            }
            Expr::Ternary {
                cond,
                then_expr,
                else_expr,
            } => {
                let s = format!(
                    "{} ? {} : {}",
                    Self::expr_prec(cond, 1),
                    Self::expr(then_expr),
                    Self::expr(else_expr)
                );
                if parent_prec > 0 {
                    format!("({s})")
                } else {
                    s
                }
            }
        }
    }

    fn stmt_inline(s: &Stmt) -> String {
        match s {
            Stmt::Decl {
                name,
                ty,
                shared,
                volatile,
                array_len,
                init,
            } => {
                let mut text = String::new();
                if *shared {
                    text.push_str("__shared__ ");
                }
                if *volatile {
                    text.push_str("volatile ");
                }
                text.push_str(&format!("{ty} {name}"));
                if let Some(len) = array_len {
                    text.push_str(&format!("[{len}]"));
                }
                if let Some(e) = init {
                    text.push_str(&format!(" = {}", Self::expr(e)));
                }
                text
            }
            Stmt::Expr(e) => Self::expr(e),
            Stmt::Assign { target, op, value } => format!(
                "{} {} {}",
                Self::expr(target),
                op.as_str(),
                Self::expr(value)
            ),
            Stmt::Return(Some(e)) => format!("return {}", Self::expr(e)),
            Stmt::Return(None) => "return".to_string(),
            Stmt::Break => "break".to_string(),
            Stmt::Continue => "continue".to_string(),
            _ => unreachable!("not an inline statement"),
        }
    }

    fn stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Decl { .. }
            | Stmt::Expr(_)
            | Stmt::Assign { .. }
            | Stmt::Return(_)
            | Stmt::Break
            | Stmt::Continue => {
                let text = Self::stmt_inline(s);
                self.line(&format!("{text};"));
            }
            Stmt::If {
                cond,
                then_block,
                else_block,
            } => {
                self.line(&format!("if ({}) {{", Self::expr(cond)));
                self.block_body(then_block);
                match else_block {
                    Some(e) => {
                        self.line("} else {");
                        self.block_body(e);
                        self.line("}");
                    }
                    None => self.line("}"),
                }
            }
            Stmt::While { cond, body } => {
                self.line(&format!("while ({}) {{", Self::expr(cond)));
                self.block_body(body);
                self.line("}");
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                let init_s = init
                    .as_ref()
                    .map_or(String::new(), |s| Self::stmt_inline(s));
                let cond_s = cond.as_ref().map_or(String::new(), Self::expr);
                let step_s = step
                    .as_ref()
                    .map_or(String::new(), |s| Self::stmt_inline(s));
                self.line(&format!("for ({init_s}; {cond_s}; {step_s}) {{"));
                self.block_body(body);
                self.line("}");
            }
            Stmt::Block(b) => {
                self.line("{");
                self.block_body(b);
                self.line("}");
            }
            Stmt::Launch {
                kernel,
                grid,
                block,
                args,
            } => {
                let args: Vec<String> = args.iter().map(Self::expr).collect();
                self.line(&format!(
                    "{kernel}<<<{}, {}>>>({});",
                    Self::expr(grid),
                    Self::expr(block),
                    args.join(", ")
                ));
            }
        }
    }

    fn block_body(&mut self, b: &Block) {
        self.indent += 1;
        for s in &b.stmts {
            self.stmt(s);
        }
        self.indent -= 1;
    }

    fn function(&mut self, f: &Function) {
        let qual = match f.kind {
            FnKind::Global => "__global__ ",
            FnKind::Device => "__device__ ",
            FnKind::Host => "",
        };
        let params: Vec<String> = f
            .params
            .iter()
            .map(|p| {
                let v = if p.volatile { "volatile " } else { "" };
                format!("{v}{} {}", p.ty, p.name)
            })
            .collect();
        self.line(&format!(
            "{qual}{} {}({}) {{",
            f.ret,
            f.name,
            params.join(", ")
        ));
        self.block_body(&f.body);
        self.line("}");
    }
}

impl fmt::Display for Function {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut p = Printer {
            out: String::new(),
            indent: 0,
        };
        p.function(self);
        f.write_str(&p.out)
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for func in &self.functions {
            if !first {
                f.write_str("\n")?;
            }
            first = false;
            write!(f, "{func}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn print_expression_precedence() {
        // (a + b) * c must keep its parens.
        let e = Expr::bin(
            BinOp::Mul,
            Expr::bin(BinOp::Add, Expr::ident("a"), Expr::ident("b")),
            Expr::ident("c"),
        );
        assert_eq!(Printer::expr(&e), "(a + b) * c");
        // a + b * c must not gain parens.
        let e2 = Expr::bin(
            BinOp::Add,
            Expr::ident("a"),
            Expr::bin(BinOp::Mul, Expr::ident("b"), Expr::ident("c")),
        );
        assert_eq!(Printer::expr(&e2), "a + b * c");
    }

    #[test]
    fn print_left_associative_subtraction() {
        // (a - b) - c prints without parens; a - (b - c) needs them.
        let left = Expr::bin(
            BinOp::Sub,
            Expr::bin(BinOp::Sub, Expr::ident("a"), Expr::ident("b")),
            Expr::ident("c"),
        );
        assert_eq!(Printer::expr(&left), "a - b - c");
        let right = Expr::bin(
            BinOp::Sub,
            Expr::ident("a"),
            Expr::bin(BinOp::Sub, Expr::ident("b"), Expr::ident("c")),
        );
        assert_eq!(Printer::expr(&right), "a - (b - c)");
    }

    #[test]
    fn replace_builtin_counts() {
        let mut block = Block::new(vec![Stmt::Assign {
            target: Expr::ident("i"),
            op: AssignOp::Assign,
            value: Expr::bin(
                BinOp::Add,
                Expr::bin(
                    BinOp::Mul,
                    Expr::Builtin(Builtin::BlockIdxX),
                    Expr::Builtin(Builtin::BlockDimX),
                ),
                Expr::Builtin(Builtin::ThreadIdxX),
            ),
        }]);
        let n = block.replace_builtin(Builtin::BlockIdxX, &Expr::ident("flep_task"));
        assert_eq!(n, 1);
        let printed = format!(
            "{}",
            Function {
                kind: FnKind::Device,
                ret: Type::Void,
                name: "t".into(),
                params: vec![],
                body: block,
            }
        );
        assert!(printed.contains("flep_task * blockDim.x + threadIdx.x"));
    }

    #[test]
    fn contains_return_recurses() {
        let b = Block::new(vec![Stmt::If {
            cond: Expr::Bool(true),
            then_block: Block::new(vec![Stmt::Return(None)]),
            else_block: None,
        }]);
        assert!(b.contains_return());
        let b2 = Block::new(vec![Stmt::Break]);
        assert!(!b2.contains_return());
    }

    #[test]
    fn function_printing_round_shape() {
        let f = Function {
            kind: FnKind::Global,
            ret: Type::Void,
            name: "k".into(),
            params: vec![
                Param {
                    name: "out".into(),
                    ty: Type::Float.ptr(),
                    volatile: false,
                },
                Param {
                    name: "flag".into(),
                    ty: Type::Uint.ptr(),
                    volatile: true,
                },
            ],
            body: Block::new(vec![Stmt::Return(None)]),
        };
        let s = f.to_string();
        assert!(s.contains("__global__ void k(float* out, volatile unsigned int* flag) {"));
        assert!(s.contains("    return;"));
    }

    #[test]
    fn type_display() {
        assert_eq!(Type::Uint.to_string(), "unsigned int");
        assert_eq!(Type::Float.ptr().to_string(), "float*");
        assert_eq!(Type::Int.ptr().ptr().to_string(), "int**");
    }
}
