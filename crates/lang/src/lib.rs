//! `aov-lang`: the textual frontend for the `aov` workspace.
//!
//! A hand-rolled, zero-dependency lexer + recursive-descent parser for a
//! small affine loop-nest language (`.aov` files), lowered to
//! [`aov_ir::Program`] with line/column caret diagnostics, plus a
//! canonical pretty-printer so every program the IR can express in the
//! surface syntax round-trips exactly.
//!
//! ```text
//! program example1;
//!
//! param n >= 1;
//! param m >= 1;
//!
//! array A[2];
//!
//! stmt S(i, j) {
//!   1 <= i <= n;
//!   1 <= j <= m;
//!   A[i][j] = f(A[i - 2][j - 1], A[i][j - 1], A[i + 1][j - 1]);
//! }
//! ```
//!
//! # Examples
//!
//! ```
//! let src = aov_lang::corpus::source("example1").unwrap();
//! let parsed = aov_lang::parse(src).unwrap();
//! let hand = aov_ir::examples::example1();
//! assert!(aov_lang::structural_eq(&parsed, &hand));
//! ```

// Library code must surface failures as values (see `aov-fault`);
// `unwrap`/`expect` are reserved for tests.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod ast;
pub mod corpus;
mod diag;
pub mod lexer;
mod lower;
pub mod parser;
mod printer;

pub use diag::{Diagnostic, Span};
pub use printer::{to_source, PrintError};

use aov_ir::Program;

/// Parses `.aov` source into a validated [`Program`].
///
/// Runs under the `lang.parse` (syntax) and `lang.lower` (name
/// resolution + IR construction) trace spans.
///
/// # Errors
///
/// Returns a caret [`Diagnostic`] for the first syntax or lowering error.
pub fn parse(src: &str) -> Result<Program, Diagnostic> {
    let ast = {
        let _span = aov_trace::span!("lang.parse", bytes = src.len());
        parser::parse_ast(src)?
    };
    let _span = aov_trace::span!("lang.lower", items = ast.items.len());
    lower::lower(src, &ast)
}

/// Structural equality of two programs: same name, parameters, parameter
/// domain, arrays, and statements (name, iterators, domain, write, reads,
/// body). [`Program`] doesn't implement `PartialEq`, so round-trip tests
/// compare through this.
pub fn structural_eq(a: &Program, b: &Program) -> bool {
    if a.name() != b.name()
        || a.params() != b.params()
        || a.param_domain() != b.param_domain()
        || a.arrays() != b.arrays()
        || a.statements().len() != b.statements().len()
    {
        return false;
    }
    a.statements().iter().zip(b.statements()).all(|(x, y)| {
        x.name() == y.name()
            && x.iters() == y.iters()
            && x.domain() == y.domain()
            && x.writes() == y.writes()
            && x.reads() == y.reads()
            && x.body() == y.body()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use aov_ir::examples;

    #[test]
    fn structural_eq_detects_differences() {
        let a = examples::example1();
        assert!(structural_eq(&a, &examples::example1()));
        assert!(!structural_eq(&a, &examples::example2()));
        assert!(!structural_eq(&a, &examples::example1_sized(4, 4)));
    }

    #[test]
    fn parse_emits_trace_spans() {
        let (_, records) = aov_trace::capture(|| {
            parse("program p;\narray A[1];\nstmt S(i) {\n  1 <= i <= 4;\n  A[i] = 0;\n}\n").unwrap()
        });
        let names: Vec<String> = records.into_iter().map(|r| r.name).collect();
        assert!(names.iter().any(|n| n == "lang.parse"), "{names:?}");
        assert!(names.iter().any(|n| n == "lang.lower"), "{names:?}");
    }
}
