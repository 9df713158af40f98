//! A reducer created in an already-stolen strand, at 4 workers; see
//! `stolen_strand/mod.rs`.

mod stolen_strand;

#[test]
fn a_reducer_created_in_a_stolen_strand_reduces_in_serial_order_at_4_workers() {
    stolen_strand::reduces_in_serial_order(4);
}
