//! Heap-allocation bounds on the `llhsc check` / `llhsc dtb` path,
//! counted by a global allocator, on a 4096-device board of the
//! `synthetic_board` shape (4100 nodes).
//!
//! Measured on this board: `parse` makes 45123 allocations, 11 per node
//! for the tree's own strings and vectors (each device's name, property
//! list, three property names, three value lists, two cell lists and
//! one string) plus 23 for growing the root's child list and index
//! while parsing the root block and sizing them once to merge it into
//! the empty tree; `collect_regions` makes 12310, 3 per node (each
//! device's path, its one segment and its region list) plus 10 for the
//! result; `fdt::encode` makes 21 in all. Each bound is that per-node
//! figure plus a fixed allowance about three times the measured
//! remainder. The token vector, per-node path rebuilding and
//! per-property byte vectors these bounds rule out made about 17, 7
//! and 12 allocations per node.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use llhsc_dts::{cells::collect_regions, fdt, parse};

/// Counts the allocations (and reallocations) of the calling thread,
/// so tests running in parallel do not see each other's.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; counting touches
// only a const-initialised thread-local without a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread, and its result.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

const DEVICES: usize = 4096;

/// The `synthetic_board` shape: memory, one cpu, then `devices`
/// devices with a register window and an interrupt each.
fn board(devices: usize) -> String {
    let mut out = String::from(
        "/dts-v1/;\n/ {\n    #address-cells = <1>;\n    #size-cells = <1>;\n\
         \n    memory@80000000 {\n        device_type = \"memory\";\n\
                 reg = <0x80000000 0x40000000>;\n    };\n\
         \n    cpus {\n        #address-cells = <1>;\n        #size-cells = <0>;\n\
                 cpu@0 { compatible = \"arm,cortex-a53\"; device_type = \"cpu\";\n\
                         enable-method = \"psci\"; reg = <0x0>; };\n    };\n",
    );
    for i in 0..devices {
        let base = 0x1000_0000 + i * 0x1000;
        out.push_str(&format!(
            "\n    dev{i}@{base:x} {{\n        compatible = \"acme,dev\";\n\
                     reg = <{base:#x} 0x1000>;\n        interrupts = <{}>;\n    }};\n",
            32 + i
        ));
    }
    out.push_str("};\n");
    out
}

#[test]
fn parse_allocates_a_bounded_number_per_node() {
    let src = board(DEVICES);
    let (n, tree) = allocations(|| parse(&src).unwrap());
    let nodes = tree.size() as u64;
    assert_eq!(nodes, DEVICES as u64 + 4);
    assert!(
        n <= 11 * nodes + 128,
        "parse made {n} allocations for {nodes} nodes"
    );
}

#[test]
fn collect_regions_allocates_a_bounded_number_per_node() {
    let tree = parse(&board(DEVICES)).unwrap();
    let nodes = tree.size() as u64;
    let (n, devices) = allocations(|| collect_regions(&tree).unwrap());
    assert_eq!(devices.len(), DEVICES + 2);
    assert!(
        n <= 3 * nodes + 32,
        "collect_regions made {n} allocations for {nodes} nodes"
    );
}

#[test]
fn encode_allocates_a_constant_number() {
    let tree = parse(&board(DEVICES)).unwrap();
    let (n, blob) = allocations(|| fdt::encode(&tree));
    assert_eq!(&blob[..4], &fdt::FDT_MAGIC.to_be_bytes());
    assert!(n <= 64, "fdt::encode made {n} allocations");
}
