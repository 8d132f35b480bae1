//! The extension model: loading, linking, and the two interaction
//! mechanisms.
//!
//! The paper (§1.1) identifies exactly two ways extensions interact with
//! the rest of an extensible system:
//!
//! 1. an extension can **call** other parts of the system ("to build on
//!    already supported functionality"), and
//! 2. an extension can **extend** the base system ("adding new services
//!    which are then invoked through already existing interfaces",
//!    sometimes called *specialization*).
//!
//! This crate implements both on top of the reference monitor:
//!
//! * [`ExtRuntime::load`] verifies an extension's bytecode, resolves its
//!   declared imports against the universal name space, and checks
//!   `execute` access on each import **at link time** — the moral
//!   equivalent of SPIN's "safe dynamic linking".
//! * [`ExtRuntime::call`] routes every invocation — from a user thread or
//!   from inside an extension via a syscall gate — through the monitor
//!   (`execute` on the target, again at call time, because ACLs may have
//!   changed since linking), then either dispatches to a registered
//!   specialization or to the base service.
//! * [`ExtRuntime::extend`] lets an extension register one of its exports
//!   as a specialization of an *extensible* interface node, guarded by the
//!   `extend` access mode.
//!
//! Dispatch among multiple specializations of one interface follows §2.2:
//! every registration carries a static security class, and "when the
//! extended service is invoked, the right extension is selected based on
//! the security class of the caller" — the dispatcher picks the
//! registration with the greatest static class still dominated by the
//! caller, falling back to the base service when none is visible.
//!
//! Thread-of-control semantics also follow §2.2: the caller's class
//! travels with the call, and entering a statically classed extension
//! *caps* the effective class at `meet(caller, static)`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod authenticate;
pub mod dispatch;
pub mod extension;
pub mod health;
pub mod runtime;
pub mod service;

pub use authenticate::{sign, AuthError, KeyRing, ModuleSignature, SigningKey};
pub use dispatch::{Dispatcher, Registration};
pub use extension::{Extension, ExtensionId, ExtensionManifest, LinkedImport, Origin};
pub use health::{Admit, HealthConfig, HealthLedger, HealthReport, HealthState, QuarantineInfo};
pub use runtime::{ExtError, ExtRuntime};
pub use service::{CallCtx, Service, ServiceError};
