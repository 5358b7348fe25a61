//! The reference op that measures the host's speed: a fixed piece of the
//! benchmark's own code, run as a fresh process like a one-shot `tasm`
//! command, so it pays the same process start, file read, tokenising and
//! allocation that a `tasm query` pays, but none of the program's code.
//!
//! ```text
//! perfbench-ref write <file>   # writes the fixed ~1.6 MB input
//! perfbench-ref run <file>     # tokenises it twice, prints a checksum
//! ```
//!
//! The input is the same on every run and every seed, so any change in
//! the op's time is a change in the host's speed.

use std::collections::HashMap;
use std::process::ExitCode;

/// Elements of the fixed input.
const ELEMENTS: usize = 150_000;

/// A fixed XML-like document: nested tags of 50 names, text in leaves.
fn input() -> Vec<u8> {
    let mut x: u64 = 0x1234_5678;
    let mut out = Vec::new();
    let mut open = Vec::new();
    for _ in 0..ELEMENTS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        if open.is_empty() || (open.len() < 8 && !x.is_multiple_of(3)) {
            let tag = (x >> 8) % 50;
            out.extend_from_slice(format!("<tag{tag}>").as_bytes());
            open.push(tag);
        } else {
            let tag = open.pop().expect("an open tag");
            out.extend_from_slice(format!("text{}</tag{tag}>", x % 1000).as_bytes());
        }
    }
    while let Some(tag) = open.pop() {
        out.extend_from_slice(format!("</tag{tag}>").as_bytes());
    }
    out
}

/// Interns every tag name, links every element to its parent in
/// postorder, and sorts the links: a parse's access pattern.
fn tokenise(buf: &[u8]) -> u64 {
    let mut names: HashMap<&[u8], u32> = HashMap::new();
    let mut nodes: Vec<(u32, u32)> = Vec::new();
    let mut open: Vec<u32> = Vec::new();
    let mut i = 0;
    while i < buf.len() {
        if buf[i] != b'<' {
            i += 1;
            continue;
        }
        let close = buf.get(i + 1) == Some(&b'/');
        let start = if close { i + 2 } else { i + 1 };
        let Some(len) = buf[start..].iter().position(|&b| b == b'>') else {
            break;
        };
        let fresh = names.len() as u32;
        let name = *names.entry(&buf[start..start + len]).or_insert(fresh);
        if close {
            nodes.push((name, open.pop().unwrap_or(0)));
        } else {
            open.push(nodes.len() as u32);
        }
        i = start + len + 1;
    }
    let mut links: Vec<u64> = nodes
        .iter()
        .map(|&(name, parent)| (u64::from(name) << 32) | u64::from(parent))
        .collect();
    links.sort_unstable();
    links.len() as u64 + names.len() as u64 + links.get(links.len() / 2).copied().unwrap_or(0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [cmd, file] if cmd == "write" => match std::fs::write(file, input()) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench-ref: cannot write {file}: {e}");
                ExitCode::from(2)
            }
        },
        [cmd, file] if cmd == "run" => match std::fs::read(file) {
            Ok(buf) => {
                let sum = (0..2).fold(0u64, |acc, _| {
                    acc.wrapping_add(tokenise(std::hint::black_box(&buf)))
                });
                println!("{sum}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench-ref: cannot read {file}: {e}");
                ExitCode::from(2)
            }
        },
        _ => {
            eprintln!("usage: perfbench-ref write|run <file>");
            ExitCode::from(1)
        }
    }
}
