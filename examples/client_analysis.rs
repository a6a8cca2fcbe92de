//! Run all three evaluation clients (SafeCast, NullDeref, FactoryM) over
//! the hand-written corpus programs, with every engine, and compare the
//! verdicts — a miniature of the paper's Table 4 setup on real code.
//!
//! Run with: `cargo run --example client_analysis`

use dynsum::{compile, EngineKind, Session};
use dynsum_clients::{run_client, ClientKind};
use dynsum_workloads::corpus;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    for program in &corpus::ALL {
        let compiled = compile(program.source)?;
        println!("== {} — {} ==", program.name, program.description);
        for client in ClientKind::ALL {
            let mut dynsum = Session::new(&compiled.pag, EngineKind::DynSum);
            let mut norefine = Session::new(&compiled.pag, EngineKind::NoRefine);
            let mut refinepts = Session::new(&compiled.pag, EngineKind::RefinePts);
            let rd = run_client(client, &compiled.info, &mut dynsum, 1);
            let rn = run_client(client, &compiled.info, &mut norefine, 1);
            let rr = run_client(client, &compiled.info, &mut refinepts, 1);
            if rd.queries == 0 {
                continue;
            }
            println!(
                "  {:<9} {} queries: {} proven, {} refuted, {} unresolved | edges D/N/R = {}/{}/{}",
                client.name(),
                rd.queries,
                rd.proven,
                rd.refuted,
                rd.unresolved,
                rd.stats.edges_traversed,
                rn.stats.edges_traversed,
                rr.stats.edges_traversed,
            );
            // DYNSUM and NOREFINE share full precision *and* the same
            // conservative aborts: identical counts.
            assert_eq!(
                (rd.proven, rd.refuted, rd.unresolved),
                (rn.proven, rn.refuted, rn.unresolved),
                "full-precision engines must agree exactly"
            );
            // REFINEPTS can prove *more* sites: its field-based first
            // pass may satisfy the client on queries whose precise
            // exploration exceeds the budget (e.g. recursive `next`
            // chains in the linked-list program) — the paper's own
            // "refinement wins when clients satisfy early" case. It can
            // never flip a refuted verdict.
            assert!(rr.proven >= rd.proven, "refinement never proves less");
            assert_eq!(rr.refuted, rd.refuted, "refutations must coincide");
        }
        println!();
    }
    println!("all engines agreed on every verdict.");
    Ok(())
}
