//! The DASP Top-10 taxonomy and the 17 query identifiers of CCC (§4.4).

use std::fmt;

/// The Decentralized Application Security Project Top-10 categories (§2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Dasp {
    /// Lacking restrictions to sensitive functionality.
    AccessControl,
    /// Over- and underflows.
    Arithmetic,
    /// Use of predictable values for randomness.
    BadRandomness,
    /// Operations that allow attackers to hinder contract execution.
    DenialOfService,
    /// Benefiting from preempting someone else's transaction.
    FrontRunning,
    /// Repeated/nested execution through external contract calls.
    Reentrancy,
    /// Functions vulnerable to transaction-address padding attacks.
    ShortAddresses,
    /// Predictable effects due to miner-chosen timestamps.
    TimeManipulation,
    /// Unchecked return values of critical functions.
    UncheckedLowLevelCalls,
    /// Everything else.
    UnknownUnknowns,
}

impl Dasp {
    /// Human-readable name as used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Dasp::AccessControl => "Access Control",
            Dasp::Arithmetic => "Arithmetic",
            Dasp::BadRandomness => "Bad Randomness",
            Dasp::DenialOfService => "Denial of Service",
            Dasp::FrontRunning => "Front Running",
            Dasp::Reentrancy => "Reentrancy",
            Dasp::ShortAddresses => "Short Addresses",
            Dasp::TimeManipulation => "Time Manipulation",
            Dasp::UncheckedLowLevelCalls => "Unchecked Low Level Calls",
            Dasp::UnknownUnknowns => "Unknown Unknowns",
        }
    }

    /// All ten categories, in the paper's Table 1 order.
    pub const ALL: &'static [Dasp] = &[
        Dasp::AccessControl,
        Dasp::Arithmetic,
        Dasp::BadRandomness,
        Dasp::DenialOfService,
        Dasp::FrontRunning,
        Dasp::Reentrancy,
        Dasp::ShortAddresses,
        Dasp::TimeManipulation,
        Dasp::UncheckedLowLevelCalls,
        Dasp::UnknownUnknowns,
    ];
}

impl fmt::Display for Dasp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The 17 vulnerability queries of CCC, one per Appendix B listing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum QueryId {
    /// Listing 3 — unrestricted writes to state used for access control.
    AcUnrestrictedWrite,
    /// Listing 4 — unrestricted access to contract-destroying functions.
    AcSelfDestruct,
    /// Listing 12 — call delegation with unsanitized input (default proxy).
    AcDefaultProxyDelegate,
    /// Listing 19 — `tx.origin` used for branching.
    AcTxOrigin,
    /// Listing 5 — address padding issues at call sites.
    ShortAddressCall,
    /// Listing 6 — state writes vulnerable to address padding.
    ShortAddressStateWrite,
    /// Listing 7 — bad sources of randomness.
    BadRandomnessSource,
    /// Listing 8 — external call failure blocking money transfers.
    DosExternalCallTransfer,
    /// Listing 9 — external call failure blocking state changes.
    DosExternalCallState,
    /// Listing 11 — attacker-inflatable expensive loops.
    DosExpensiveLoop,
    /// Listing 13 — clearable collections used for transfers.
    DosClearableCollection,
    /// Listing 10 — critical calls with ignored return values.
    UncheckedCall,
    /// Listing 14 — miner/front-runner can claim the same benefit.
    FrontRunnableBenefit,
    /// Listing 15 — writes through uninitialized local storage pointers.
    UninitializedStoragePointer,
    /// Listing 16 — over/underflowable arithmetic.
    ArithmeticOverflow,
    /// Listing 17 — call paths vulnerable to reentrancy.
    Reentrancy,
    /// Listing 18 — miner-controllable timestamp changes the outcome.
    TimestampDependence,
}

impl QueryId {
    /// The DASP category this query reports into.
    pub fn category(self) -> Dasp {
        match self {
            QueryId::AcUnrestrictedWrite
            | QueryId::AcSelfDestruct
            | QueryId::AcDefaultProxyDelegate
            | QueryId::AcTxOrigin => Dasp::AccessControl,
            QueryId::ShortAddressCall | QueryId::ShortAddressStateWrite => Dasp::ShortAddresses,
            QueryId::BadRandomnessSource => Dasp::BadRandomness,
            QueryId::DosExternalCallTransfer
            | QueryId::DosExternalCallState
            | QueryId::DosExpensiveLoop
            | QueryId::DosClearableCollection => Dasp::DenialOfService,
            QueryId::UncheckedCall => Dasp::UncheckedLowLevelCalls,
            QueryId::FrontRunnableBenefit => Dasp::FrontRunning,
            QueryId::UninitializedStoragePointer => Dasp::UnknownUnknowns,
            QueryId::ArithmeticOverflow => Dasp::Arithmetic,
            QueryId::Reentrancy => Dasp::Reentrancy,
            QueryId::TimestampDependence => Dasp::TimeManipulation,
        }
    }

    /// Appendix B listing number of the query.
    pub fn listing(self) -> u32 {
        match self {
            QueryId::AcUnrestrictedWrite => 3,
            QueryId::AcSelfDestruct => 4,
            QueryId::ShortAddressCall => 5,
            QueryId::ShortAddressStateWrite => 6,
            QueryId::BadRandomnessSource => 7,
            QueryId::DosExternalCallTransfer => 8,
            QueryId::DosExternalCallState => 9,
            QueryId::UncheckedCall => 10,
            QueryId::DosExpensiveLoop => 11,
            QueryId::AcDefaultProxyDelegate => 12,
            QueryId::DosClearableCollection => 13,
            QueryId::FrontRunnableBenefit => 14,
            QueryId::UninitializedStoragePointer => 15,
            QueryId::ArithmeticOverflow => 16,
            QueryId::Reentrancy => 17,
            QueryId::TimestampDependence => 18,
            QueryId::AcTxOrigin => 19,
        }
    }

    /// Stable identifier of the query, as used in the versioned JSON
    /// encoding of the analysis API (`pipeline::api`).
    pub fn name(self) -> &'static str {
        match self {
            QueryId::AcUnrestrictedWrite => "AcUnrestrictedWrite",
            QueryId::AcSelfDestruct => "AcSelfDestruct",
            QueryId::AcDefaultProxyDelegate => "AcDefaultProxyDelegate",
            QueryId::AcTxOrigin => "AcTxOrigin",
            QueryId::ShortAddressCall => "ShortAddressCall",
            QueryId::ShortAddressStateWrite => "ShortAddressStateWrite",
            QueryId::BadRandomnessSource => "BadRandomnessSource",
            QueryId::DosExternalCallTransfer => "DosExternalCallTransfer",
            QueryId::DosExternalCallState => "DosExternalCallState",
            QueryId::DosExpensiveLoop => "DosExpensiveLoop",
            QueryId::DosClearableCollection => "DosClearableCollection",
            QueryId::UncheckedCall => "UncheckedCall",
            QueryId::FrontRunnableBenefit => "FrontRunnableBenefit",
            QueryId::UninitializedStoragePointer => "UninitializedStoragePointer",
            QueryId::ArithmeticOverflow => "ArithmeticOverflow",
            QueryId::Reentrancy => "Reentrancy",
            QueryId::TimestampDependence => "TimestampDependence",
        }
    }

    /// The inverse of [`QueryId::name`]: resolve a detector name from a
    /// request. `None` for unknown names (the caller turns this into an
    /// `AnalysisError::Query`).
    pub fn parse_name(name: &str) -> Option<QueryId> {
        QueryId::ALL.iter().copied().find(|q| q.name() == name)
    }

    /// Short description for reports.
    pub fn description(self) -> &'static str {
        match self {
            QueryId::AcUnrestrictedWrite => {
                "unrestricted write to a state variable used for access control"
            }
            QueryId::AcSelfDestruct => "unrestricted access to a contract-destroying function",
            QueryId::AcDefaultProxyDelegate => {
                "default function delegates calls without sanitizing msg.data"
            }
            QueryId::AcTxOrigin => "tx.origin used for authorization branching",
            QueryId::ShortAddressCall => "address padding issue at a call site",
            QueryId::ShortAddressStateWrite => "state write vulnerable to address padding",
            QueryId::BadRandomnessSource => "predictable value used as randomness source",
            QueryId::DosExternalCallTransfer => {
                "external call failure prevents other money transfers"
            }
            QueryId::DosExternalCallState => "external call failure prevents state changes",
            QueryId::DosExpensiveLoop => "expensive loop inflatable by an attacker",
            QueryId::DosClearableCollection => {
                "collection used for transfers can be cleared outside initialization"
            }
            QueryId::UncheckedCall => "return value of a critical call is ignored",
            QueryId::FrontRunnableBenefit => {
                "beneficial state change claimable by any transaction sender"
            }
            QueryId::UninitializedStoragePointer => {
                "write through a local struct that may alias state variables"
            }
            QueryId::ArithmeticOverflow => "arithmetic operation can over- or underflow",
            QueryId::Reentrancy => "state write after a reentrant external call",
            QueryId::TimestampDependence => {
                "miner-chosen timestamp changes the transaction outcome"
            }
        }
    }

    /// All 17 queries, in listing order.
    pub const ALL: &'static [QueryId] = &[
        QueryId::AcUnrestrictedWrite,
        QueryId::AcSelfDestruct,
        QueryId::ShortAddressCall,
        QueryId::ShortAddressStateWrite,
        QueryId::BadRandomnessSource,
        QueryId::DosExternalCallTransfer,
        QueryId::DosExternalCallState,
        QueryId::UncheckedCall,
        QueryId::DosExpensiveLoop,
        QueryId::AcDefaultProxyDelegate,
        QueryId::DosClearableCollection,
        QueryId::FrontRunnableBenefit,
        QueryId::UninitializedStoragePointer,
        QueryId::ArithmeticOverflow,
        QueryId::Reentrancy,
        QueryId::TimestampDependence,
        QueryId::AcTxOrigin,
    ];
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn seventeen_queries_cover_all_ten_categories() {
        assert_eq!(QueryId::ALL.len(), 17);
        let categories: HashSet<Dasp> = QueryId::ALL.iter().map(|q| q.category()).collect();
        assert_eq!(categories.len(), Dasp::ALL.len());
    }

    #[test]
    fn listing_numbers_are_unique_and_in_appendix_range() {
        let listings: HashSet<u32> = QueryId::ALL.iter().map(|q| q.listing()).collect();
        assert_eq!(listings.len(), 17);
        assert!(listings.iter().all(|l| (3..=19).contains(l)));
    }
}
