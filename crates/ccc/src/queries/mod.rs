//! The 17 vulnerability queries of CCC, one module per DASP category
//! (cf. §4.4 and Appendix B of the paper).

pub mod access_control;
pub mod arithmetic;
pub mod dos;
pub mod front_running;
pub mod randomness;
pub mod reentrancy;
pub mod short_address;
pub mod time;
pub mod unchecked;
pub mod unknown;

use crate::dasp::QueryId;
use crate::helpers::Ctx;
use crate::Finding;

/// The telemetry handles of one detector: its stage (named like the
/// query) and its `ccc.findings.<Query>` counter.
struct Instruments {
    stage: telemetry::Stage,
    findings: telemetry::Counter,
}

macro_rules! instruments {
    ($($query:ident),* $(,)?) => {
        [$(Instruments {
            stage: telemetry::Stage::new(stringify!($query)),
            findings: telemetry::Counter::new(concat!("ccc.findings.", stringify!($query))),
        }),*]
    };
}

/// Per-detector handles, indexed by `QueryId as usize` (declaration
/// order of [`QueryId`]).
static INSTRUMENTS: [Instruments; 17] = instruments![
    AcUnrestrictedWrite,
    AcSelfDestruct,
    AcDefaultProxyDelegate,
    AcTxOrigin,
    ShortAddressCall,
    ShortAddressStateWrite,
    BadRandomnessSource,
    DosExternalCallTransfer,
    DosExternalCallState,
    DosExpensiveLoop,
    DosClearableCollection,
    UncheckedCall,
    FrontRunnableBenefit,
    UninitializedStoragePointer,
    ArithmeticOverflow,
    Reentrancy,
    TimestampDependence,
];

/// Run a single query against a context.
pub fn run_query(ctx: &Ctx, query: QueryId) -> Vec<Finding> {
    let instruments = &INSTRUMENTS[query as usize];
    let _stage = instruments.stage.enter();
    let findings = dispatch_query(ctx, query);
    if !findings.is_empty() {
        telemetry::trace::annotate("findings", findings.len());
        instruments.findings.add(findings.len() as u64);
    }
    findings
}

fn dispatch_query(ctx: &Ctx, query: QueryId) -> Vec<Finding> {
    match query {
        QueryId::AcUnrestrictedWrite => access_control::unrestricted_write(ctx),
        QueryId::AcSelfDestruct => access_control::unprotected_selfdestruct(ctx),
        QueryId::AcDefaultProxyDelegate => access_control::default_proxy_delegate(ctx),
        QueryId::AcTxOrigin => access_control::tx_origin_branching(ctx),
        QueryId::ShortAddressCall => short_address::at_call_sites(ctx),
        QueryId::ShortAddressStateWrite => short_address::at_state_writes(ctx),
        QueryId::BadRandomnessSource => randomness::bad_randomness(ctx),
        QueryId::DosExternalCallTransfer => dos::external_call_blocks_transfers(ctx),
        QueryId::DosExternalCallState => dos::external_call_blocks_state(ctx),
        QueryId::DosExpensiveLoop => dos::expensive_loop(ctx),
        QueryId::DosClearableCollection => dos::clearable_collection(ctx),
        QueryId::UncheckedCall => unchecked::unchecked_call(ctx),
        QueryId::FrontRunnableBenefit => front_running::front_runnable_benefit(ctx),
        QueryId::UninitializedStoragePointer => unknown::uninitialized_storage_pointer(ctx),
        QueryId::ArithmeticOverflow => arithmetic::arithmetic_overflow(ctx),
        QueryId::Reentrancy => reentrancy::reentrancy(ctx),
        QueryId::TimestampDependence => time::timestamp_dependence(ctx),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instruments_follow_query_declaration_order() {
        for &query in QueryId::ALL {
            assert_eq!(INSTRUMENTS[query as usize].stage.name(), query.name());
        }
    }
}
