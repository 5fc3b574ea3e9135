//! A minimal, dependency-free JSON representation used to serialize campaign
//! reports, shard specs and schedule-cache dumps.
//!
//! The build environment of this reproduction is fully offline, so the usual
//! `serde`/`serde_json` pair is unavailable and the workspace depends on no
//! outside crate. The implementation lives in [`themis_core::json`] — so the
//! core crate's [`themis_core::ScheduleCache::dump`] /
//! [`themis_core::ScheduleCache::load`] speak the same format as the facade's
//! campaign reports — and is re-exported here under its historical path.
//! [`JsonError`]s convert into [`crate::error::ThemisError::Json`], so `?`
//! works across the whole API surface.

pub use themis_core::json::{Json, JsonError};
