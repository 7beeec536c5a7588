//! Pinned content digests of every assembled workload image. The
//! assembler must keep emitting these exact bytes and symbol tables:
//! the golden boot digests, the diffuzz corpus and the benchmark's
//! pinned cycle counts all rest on them.

use campaign::fnv1a;
use microblaze::asm::{assemble, Image};
use workload::apps;
use workload::boot::{Boot, BootParams};

/// FNV-1a over each chunk (base, length, bytes) in order, then every
/// symbol sorted by name.
fn digest(img: &Image) -> u64 {
    let mut bytes = Vec::new();
    for (base, chunk) in &img.chunks {
        bytes.extend_from_slice(&base.to_be_bytes());
        bytes.extend_from_slice(&(chunk.len() as u32).to_be_bytes());
        bytes.extend_from_slice(chunk);
    }
    let mut syms: Vec<_> = img.symbols.iter().collect();
    syms.sort();
    for (name, addr) in syms {
        bytes.extend_from_slice(name.as_bytes());
        bytes.push(0);
        bytes.extend_from_slice(&addr.to_be_bytes());
    }
    fnv1a(&bytes)
}

#[test]
fn boot_images_match_their_pinned_digests() {
    let pinned: [(u32, bool, u64); 6] = [
        (1, false, 0x182ced8a795d0320),
        (1, true, 0x617f723fa24800c5),
        (4, false, 0xd613ef4cbda033d8),
        (4, true, 0x11fe0b150395c1a8),
        (16, false, 0xf4b88fc0e41a80eb),
        (16, true, 0xd7c5a1b3ab148cf9),
    ];
    for (scale, reconfig, want) in pinned {
        let got = digest(&Boot::build(BootParams { scale, reconfig }).image);
        assert_eq!(got, want, "boot image at scale {scale}, reconfig {reconfig}");
    }
}

#[test]
fn app_and_example_images_match_their_pinned_digests() {
    let pinned: [(&str, u64); 3] = [
        ("sort", 0xe7ed57fd05bc68f2),
        ("strings", 0x8258158de77ec894),
        ("checksum", 0x340089589ec2ccac),
    ];
    let suite = apps::suite();
    assert_eq!(suite.len(), pinned.len());
    for (app, (name, want)) in suite.iter().zip(pinned) {
        let got = digest(&app.image);
        assert_eq!((app.name, got), (name, want));
    }
    let src = include_str!("../examples/icap_driver.s");
    let got = digest(&assemble(src).expect("icap_driver.s assembles"));
    assert_eq!(got, 0x17e093bdffb8f38d, "examples/icap_driver.s");
}
