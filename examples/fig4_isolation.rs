//! Figure 4 reproduction: isolating a real reverse-path outage.
//!
//! Recreates the paper's February 24, 2011 diagnosis: a PlanetLab host at
//! GMU loses connectivity to Smartkom (Russia). Plain traceroute terminates
//! in TransTelecom and *suggests* a forward problem between TransTelecom
//! and ZSTTK — but spoofed probes show the forward path is fine, and the
//! reachability-horizon scan over historical reverse paths pins the blame
//! on Rostelecom, which no longer has a working path back to GMU.
//!
//! Path asymmetry is structural, as on the real Internet: ZSTTK reaches
//! GMU through its customer Rostelecom (customer routes beat longer
//! customer routes), while the forward path climbs Level3 → Telia →
//! TransTelecom → ZSTTK because Level3 filters routes through Rostelecom.
//!
//! ```sh
//! cargo run --example fig4_isolation
//! ```

use lifeguard_repro::asmap::{AsId, GraphBuilder};
use lifeguard_repro::atlas::{Atlas, PathKind, RefreshScheduler, ResponsivenessDb};
use lifeguard_repro::bgp::ImportPolicy;
use lifeguard_repro::locate::Isolator;
use lifeguard_repro::probe::Prober;
use lifeguard_repro::sim::dataplane::{infra_addr, infra_prefix, DataPlane};
use lifeguard_repro::sim::failures::Failure;
use lifeguard_repro::sim::{Network, Time};

const NAMES: [&str; 8] = [
    "GMU",          // 0 - source vantage point
    "Level3",       // 1
    "Rostelecom",   // 2 - reverse path only
    "Telia",        // 3
    "TransTelecom", // 4
    "ZSTTK",        // 5
    "Smartkom",     // 6 - destination
    "NTT",          // 7 - helper vantage point
];

fn name(a: AsId) -> &'static str {
    NAMES[a.index()]
}

fn main() {
    let (gmu, level3, rostele, telia, ttk, zsttk, smart, ntt) = (
        AsId(0),
        AsId(1),
        AsId(2),
        AsId(3),
        AsId(4),
        AsId(5),
        AsId(6),
        AsId(7),
    );
    let mut g = GraphBuilder::with_ases(8);
    g.provider_customer(level3, gmu); // Level3 provides GMU
    g.provider_customer(telia, level3); // forward: up to Telia
    g.provider_customer(ttk, telia); // ... TransTelecom ...
    g.provider_customer(zsttk, ttk); // ... ZSTTK at the top of this chain
    g.provider_customer(zsttk, smart); // Smartkom behind ZSTTK
    g.provider_customer(zsttk, ntt); // NTT: vantage point near the top
                                     // The reverse shortcut: Rostelecom is ZSTTK's customer and Level3's
                                     // provider, so ZSTTK's 3-hop customer route via Rostelecom beats the
                                     // 4-hop one via TransTelecom for traffic toward GMU.
    g.provider_customer(zsttk, rostele);
    g.provider_customer(rostele, level3);
    let mut net = Network::new(g.build());
    // Level3 does not accept routes through Rostelecom (policy), keeping
    // the forward path on the Telia side.
    net.set_policy(
        level3,
        ImportPolicy {
            deny_transit: vec![rostele],
            ..ImportPolicy::standard()
        },
    );

    let mut dp = DataPlane::new(&net);
    let mut prober = Prober::with_defaults();
    let mut atlas = Atlas::default();
    let mut resp = ResponsivenessDb::new();

    // Healthy monitoring period builds the background atlas.
    let mut pairs = vec![(gmu, smart)];
    for a in net.graph().ases() {
        if a != gmu {
            pairs.push((gmu, a));
        }
    }
    let mut sched = RefreshScheduler::new(pairs, 60_000);
    sched.refresh_due(&dp, &mut prober, &mut atlas, &mut resp, Time::ZERO);

    let fwd = atlas.latest(PathKind::Forward, gmu, smart).unwrap();
    let fwd_names: Vec<&str> = fwd.as_path().iter().map(|a| name(*a)).collect();
    println!(
        "historical forward path (atlas): {}",
        fwd_names.join(" -> ")
    );
    let rev = atlas.latest(PathKind::Reverse, gmu, smart).unwrap();
    let rev_names: Vec<&str> = rev.as_path().iter().map(|a| name(*a)).collect();
    println!(
        "historical reverse path (atlas): {}",
        rev_names.join(" -> ")
    );
    assert!(
        rev_names.contains(&"Rostelecom"),
        "reverse must cross Rostelecom"
    );
    assert!(
        !fwd_names.contains(&"Rostelecom"),
        "forward must avoid Rostelecom"
    );

    // The failure: Rostelecom loses its path back to GMU (drops traffic
    // toward GMU's prefix), silently.
    let t_fail = Time::from_mins(10);
    dp.failures_mut()
        .add(Failure::silent_as_toward(rostele, infra_prefix(gmu)).window(t_fail, None));

    let now = Time::from_mins(12);

    // What the operator sees with traceroute alone:
    let tr = prober.traceroute(&dp, now, gmu, infra_addr(smart));
    let seen: Vec<&str> = tr.responsive_as_path().iter().map(|a| name(*a)).collect();
    println!(
        "\nplain traceroute from GMU: {} -> * -> *",
        seen.join(" -> ")
    );
    let tr_blame = tr.responsive_as_path().last().copied();
    println!(
        "traceroute-only diagnosis: path dies after {} (suggesting the {}-ZSTTK boundary)",
        tr_blame.map(name).unwrap_or("?"),
        tr_blame.map(name).unwrap_or("?"),
    );

    // What LIFEGUARD concludes:
    let isolator = Isolator::new(vec![ntt, level3]);
    let report = isolator.isolate(&dp, &mut prober, &atlas, &resp, now, gmu, smart);
    println!("\nLIFEGUARD isolation:");
    println!("  direction      : {:?}", report.direction);
    println!(
        "  blame          : {}",
        report.blamed_as().map(name).unwrap_or("?")
    );
    if let Some((far, near)) = report.horizon {
        println!(
            "  horizon        : {} (cannot reach GMU) | {} (still reaches GMU)",
            name(far),
            name(near)
        );
    }
    if let Some(wp) = &report.working_path {
        let mut hops: Vec<&str> = Vec::new();
        for h in wp {
            if hops.last() != Some(&name(h.owner)) {
                hops.push(name(h.owner));
            }
        }
        println!("  working fwd    : {}", hops.join(" -> "));
    }
    println!("  probes used    : {}", report.probes_used.total());
    println!("  modeled elapsed: {} s", report.elapsed_ms / 1000);

    assert_eq!(report.blamed_as(), Some(rostele), "{report:?}");
    assert_eq!(
        tr_blame,
        Some(ttk),
        "traceroute should stop at TransTelecom"
    );
    assert!(report.differs_from_traceroute());
    println!("\n=> traceroute misled (blamed the {} region);", name(ttk));
    println!("   LIFEGUARD correctly blames Rostelecom's failed reverse path.");
}
