//! Error types for DTD parsing and analysis.

use std::fmt;

/// Category of a [`DtdError`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DtdErrorKind {
    /// Input ended in the middle of a declaration.
    UnexpectedEof,
    /// Unexpected token at this position.
    Unexpected(String),
    /// A content model referenced an element that is never declared.
    UndeclaredElement(String),
    /// The same element type was declared twice.
    DuplicateDeclaration(String),
    /// Malformed content model expression.
    BadContentModel(String),
    /// `#PCDATA` appears somewhere other than (the head of) a mixed-content
    /// group — forbidden by the XML spec and by the paper's footnote 6.
    MisplacedPcdata,
    /// A parameter entity reference could not be resolved.
    UnknownParameterEntity(String),
    /// Parameter-entity expansion exceeded the safety limit.
    EntityExpansionLimit,
    /// The requested root element is not declared in the DTD.
    UnknownRoot(String),
    /// An element is unusable: it can never occur in any valid document
    /// (Section 3.3 requires all elements to be usable).
    UnusableElement(String),
    /// A content model nests groups deeper than
    /// [`crate::parser::MAX_GROUP_DEPTH`].
    NestingTooDeep,
}

/// An error from DTD parsing or analysis, with a byte offset into the
/// internal-subset source where applicable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DtdError {
    /// What went wrong.
    pub kind: DtdErrorKind,
    /// Byte offset in the DTD source (0 when not tied to source text).
    pub offset: usize,
}

impl DtdError {
    /// Creates an error at the given source offset.
    pub fn new(kind: DtdErrorKind, offset: usize) -> Self {
        DtdError { kind, offset }
    }
}

impl fmt::Display for DtdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            DtdErrorKind::UnexpectedEof => write!(f, "unexpected end of DTD"),
            DtdErrorKind::Unexpected(t) => write!(f, "unexpected {t}"),
            DtdErrorKind::UndeclaredElement(n) => {
                write!(f, "content model references undeclared element {n:?}")
            }
            DtdErrorKind::DuplicateDeclaration(n) => {
                write!(f, "element type {n:?} declared twice")
            }
            DtdErrorKind::BadContentModel(m) => write!(f, "bad content model: {m}"),
            DtdErrorKind::MisplacedPcdata => {
                write!(f, "#PCDATA may only start a mixed-content group")
            }
            DtdErrorKind::UnknownParameterEntity(n) => {
                write!(f, "unknown parameter entity %{n};")
            }
            DtdErrorKind::EntityExpansionLimit => {
                write!(f, "parameter entity expansion exceeded the safety limit")
            }
            DtdErrorKind::UnknownRoot(n) => write!(f, "root element {n:?} is not declared"),
            DtdErrorKind::UnusableElement(n) => write!(
                f,
                "element {n:?} is unusable (cannot occur in any valid document)"
            ),
            DtdErrorKind::NestingTooDeep => write!(
                f,
                "content model nests groups deeper than {} levels",
                crate::parser::MAX_GROUP_DEPTH
            ),
        }?;
        if self.offset != 0 {
            write!(f, " (at byte {})", self.offset)?;
        }
        Ok(())
    }
}

impl std::error::Error for DtdError {}
