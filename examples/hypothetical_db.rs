//! Differential files as a *hypothetical database* (Stonebraker's use of
//! the decomposition the paper builds on): run what-if transactions
//! against a production relation without ever touching the base file.
//!
//! ```sh
//! cargo run --example hypothetical_db
//! ```

use recovery_machines::difffile::{DiffConfig, DiffDb, ScanStrategy, Tuple};

fn main() {
    // the production relation: product inventory, read-only base file
    let base: Vec<Tuple> = (0..100)
        .map(|sku| Tuple {
            key: sku,
            value: format!("qty={}", 50 + sku % 17).into_bytes(),
        })
        .collect();
    let mut db = DiffDb::with_base(DiffConfig::default(), base).unwrap();

    // A what-if scenario: "what would the catalog look like if we dropped
    // every tenth SKU and doubled the new line?" — run it, inspect it,
    // then throw it away. The base file never changes.
    let what_if = db.begin();
    for sku in (0..100).step_by(10) {
        db.delete(what_if, sku).unwrap();
    }
    for sku in 100..110 {
        db.insert(what_if, sku, b"qty=200 (proposed)").unwrap();
    }
    let hypothetical = db
        .query(what_if, |t| t.key >= 95, ScanStrategy::Optimal, 1)
        .unwrap();
    println!(
        "hypothetical view of SKUs ≥ 95 ({} tuples):",
        hypothetical.len()
    );
    for t in &hypothetical {
        println!("  sku {:>3}  {}", t.key, String::from_utf8_lossy(&t.value));
    }
    db.abort(what_if).unwrap();
    println!("scenario discarded — the base file was never written\n");

    // Reality: a committed update batch.
    let real = db.begin();
    db.update(real, 7, b"qty=0 (sold out)").unwrap();
    db.delete(real, 13).unwrap();
    db.commit(real).unwrap();

    let reader = db.begin();
    let count = db
        .query(reader, |_| true, ScanStrategy::Optimal, 1)
        .unwrap()
        .len();
    assert_eq!(count, 99, "100 base - 1 delete");
    assert_eq!(db.get(reader, 7).unwrap().unwrap(), b"qty=0 (sold out)");
    assert_eq!(db.get(reader, 13).unwrap(), None);
    db.abort(reader).unwrap();
    println!("committed view: {count} tuples, sku 7 sold out, sku 13 gone");

    // Crash: the committed delta survives, nothing else.
    let mut db = DiffDb::recover(db.crash_image(), DiffConfig::default()).unwrap();
    let reader = db.begin();
    assert_eq!(db.get(reader, 7).unwrap().unwrap(), b"qty=0 (sold out)");
    db.abort(reader).unwrap();
    println!("crash + recovery: committed delta intact ✓");

    // Merge folds A and D into a new base and empties the differential
    // files — the operation the paper's §4.3.3 decided not to model.
    println!(
        "before merge: {} A-entries, {} D-entries, {} base pages",
        db.a_entries(),
        db.d_entries(),
        db.base_pages()
    );
    db.merge().unwrap();
    println!(
        "after merge:  {} A-entries, {} D-entries, {} base pages",
        db.a_entries(),
        db.d_entries(),
        db.base_pages()
    );
    let reader = db.begin();
    assert_eq!(db.get(reader, 13).unwrap(), None);
    assert_eq!(
        db.query(reader, |_| true, ScanStrategy::Optimal, 1)
            .unwrap()
            .len(),
        99
    );
    db.abort(reader).unwrap();
    println!("post-merge view identical ✓");
}
