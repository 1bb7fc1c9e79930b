//! # sim-noc — cycle-level 2D-mesh network-on-chip
//!
//! The main data network of the simulated CMP (Table 1 of the paper:
//! 2D mesh, 75-byte links, 75 GB/s). The coherence protocol of `sim-mem`
//! rides on it; the G-line barrier network of `gline-core` deliberately
//! does **not** — that separation is the paper's whole point.
//!
//! Model:
//!
//! * **Topology** — `R × C` mesh, one router per tile, 5 ports each
//!   (North/South/East/West/Local), dimension-ordered XY routing
//!   (deadlock-free per virtual network).
//! * **Virtual networks** — one per [`sim_base::stats::MsgClass`]
//!   (Request / Reply / Coherence). This both matches the paper's
//!   Figure-7 traffic taxonomy and breaks protocol deadlock cycles.
//! * **Switching** — wormhole: packets are split into link-width flits;
//!   an output port is held by a packet from head to tail. One flit per
//!   output port per cycle.
//! * **Flow control** — credit-based; each input virtual channel buffers
//!   [`sim_base::config::NocConfig::vc_buffer_flits`] flits.
//! * **Timing** — `router_latency` cycles per router traversal plus
//!   `link_latency` per link.
//!
//! Messages whose source and destination tile coincide (e.g. an L1 miss
//! whose L2 home bank is local) bypass the network, are delivered on the
//! next cycle and are *not* counted in traffic statistics — they never
//! cross a link, matching how the paper counts "messages across the
//! network".

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod msg;
pub mod network;
pub mod router;
pub mod stats;

pub use msg::Message;
pub use network::{Noc, NocSchedStats};
pub use stats::NocStats;
