//! Peak heap of `tasm_postorder`, measured by `tasm_bench`'s counting
//! allocator in a process of its own, so the timed replays of `perfbench`
//! run on the plain system allocator.
//!
//! Reads jobs from stdin, one per line: `<k>\t<document.xml>\t<query xml>`.
//! Each document is parsed once; each query is parsed into the
//! document's dictionary and ranked over a `TreeQueue`. Prints the
//! largest extra peak heap of any job, in bytes.

use std::collections::HashMap;
use std::fs::File;
use std::io::{self, BufRead, BufReader};
use std::process::ExitCode;

use tasm_bench::alloc::{measure_peak, CountingAlloc};
use tasm_core::{tasm_postorder, TasmOptions};
use tasm_ted::UnitCost;
use tasm_tree::{LabelDict, Tree, TreeQueue};
use tasm_xml::{parse_tree, parse_tree_str};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() -> ExitCode {
    let mut docs: HashMap<String, (Tree, LabelDict)> = HashMap::new();
    let mut peak = 0usize;
    for line in io::stdin().lock().lines() {
        let line = match line {
            Ok(l) => l,
            Err(e) => {
                eprintln!("perfbench-heap: {e}");
                return ExitCode::from(2);
            }
        };
        let mut f = line.splitn(3, '\t');
        let (Some(k), Some(path), Some(query)) = (f.next(), f.next(), f.next()) else {
            eprintln!("perfbench-heap: malformed job: {line}");
            return ExitCode::from(2);
        };
        let Ok(k) = k.parse::<usize>() else {
            eprintln!("perfbench-heap: bad k in: {line}");
            return ExitCode::from(2);
        };
        if !docs.contains_key(path) {
            let mut dict = LabelDict::new();
            let parsed = File::open(path)
                .map_err(|e| e.to_string())
                .and_then(|f| parse_tree(BufReader::new(f), &mut dict).map_err(|e| e.to_string()));
            match parsed {
                Ok(tree) => docs.insert(path.to_string(), (tree, dict)),
                Err(e) => {
                    eprintln!("perfbench-heap: {path}: {e}");
                    return ExitCode::from(2);
                }
            };
        }
        let (tree, dict) = &docs[path];
        let mut dict = dict.clone();
        let Ok(query) = parse_tree_str(query, &mut dict) else {
            eprintln!("perfbench-heap: query does not parse: {query}");
            return ExitCode::from(2);
        };
        let (_, bytes) = measure_peak(|| {
            tasm_postorder(
                &query,
                &mut TreeQueue::new(tree),
                k,
                &UnitCost,
                1,
                TasmOptions::default(),
                None,
            )
        });
        peak = peak.max(bytes);
    }
    println!("{peak}");
    ExitCode::SUCCESS
}
