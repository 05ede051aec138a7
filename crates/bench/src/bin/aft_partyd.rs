//! `aft-partyd` — one party of a deployed protocol run, in its own OS
//! process.
//!
//! The daemon hosts exactly one [`Node`](aft_sim::Node), built with the
//! same constructor (and per-party RNG derivation) as every in-process
//! backend, and exchanges envelopes with its peers over loopback TCP
//! using the `aft_sim::deploy` wire format inside length-prefixed
//! frames. It is driven by `exp_deployment` (or any supervisor speaking
//! the same control protocol — see `aft_bench::deployment`):
//!
//! ```sh
//! aft-partyd --party 2 --stack ba --seed 7 \
//!     --scenario 'n=4,t=1,rt=proc' [--recovered]
//! ```
//!
//! Lifecycle: bind a listener and print `ready <addr>`; receive the
//! `peers` address book; mesh (dial every lower-numbered party, accept
//! the rest — a restarted daemon dials *everyone* with the `recovered`
//! hello flag, prompting each peer to replace its link and replay its
//! outbox); print `meshed`; on `go`, spawn the scenario-assigned
//! instance and run the delivery loop; on `shutdown` (or supervisor
//! EOF), print final counters and exit.

use aft_bench::deployment::{instance_for, read_frame, write_frame, DeployStack};
use aft_core::scenarios::standard_registry;
use aft_sim::{decode_envelope, encode_envelope, party_node, Outgoing, PartyId, Scenario};
use std::collections::VecDeque;
use std::io::{BufRead, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::Duration;

/// Peer-link hello: 4 bytes little-endian party id, 1 recovered flag.
const HELLO_LEN: usize = 5;

enum Event {
    /// A control line from the supervisor (stdin); `None` is EOF.
    Ctrl(Option<String>),
    /// A peer link came up (dialed or accepted).
    Link {
        party: usize,
        recovered: bool,
        stream: TcpStream,
    },
    /// One envelope frame from an established link.
    Frame {
        from: usize,
        gen: u64,
        bytes: Vec<u8>,
    },
    /// A link died (read error or EOF).
    PeerGone { party: usize, gen: u64 },
}

fn fatal(msg: &str) -> ! {
    eprintln!("aft-partyd: {msg}");
    std::process::exit(2);
}

struct Args {
    party: usize,
    stack: DeployStack,
    seed: u64,
    scenario: Scenario,
    recovered: bool,
}

fn parse_args() -> Args {
    let mut party = None;
    let mut stack = None;
    let mut seed = None;
    let mut scenario = None;
    let mut recovered = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .unwrap_or_else(|| fatal(&format!("{what} needs a value")))
        };
        match arg.as_str() {
            "--party" => {
                party = value("--party").parse().ok();
            }
            "--stack" => {
                stack = DeployStack::from_label(&value("--stack"));
            }
            "--seed" => {
                seed = value("--seed").parse().ok();
            }
            "--scenario" => {
                let spec = value("--scenario");
                scenario = Some(
                    Scenario::parse(&spec)
                        .unwrap_or_else(|| fatal(&format!("scenario {spec:?} does not parse"))),
                );
            }
            "--recovered" => recovered = true,
            other => fatal(&format!("unknown argument {other:?}")),
        }
    }
    let scenario = scenario.unwrap_or_else(|| fatal("--scenario is required"));
    let party = party.unwrap_or_else(|| fatal("--party is required"));
    if party >= scenario.n {
        fatal(&format!(
            "--party {party} out of range for n={}",
            scenario.n
        ));
    }
    Args {
        party,
        stack: stack.unwrap_or_else(|| fatal("--stack must be ba or common-subset")),
        seed: seed.unwrap_or_else(|| fatal("--seed is required")),
        scenario,
        recovered,
    }
}

/// One established peer link: a writer-thread queue plus the generation
/// that keeps events from a replaced socket out of the current one.
struct Link {
    tx: Sender<Vec<u8>>,
    gen: u64,
}

struct Daemon {
    me: PartyId,
    node: aft_sim::Node,
    session: aft_sim::SessionId,
    links: Vec<Option<Link>>,
    /// Every envelope ever sent to each peer, for replay when that peer
    /// reconnects after a supervisor restart.
    outbox: Vec<Vec<Vec<u8>>>,
    sent: u64,
    delivered: u64,
    output_reported: bool,
    stack: DeployStack,
}

impl Daemon {
    /// Installs (or replaces) the link to `party` and spawns its reader
    /// and writer threads. When the peer announced itself as recovered,
    /// the full outbox is replayed ahead of new traffic.
    fn add_link(&mut self, party: usize, recovered: bool, stream: TcpStream, tx: &Sender<Event>) {
        let gen = self.links[party].as_ref().map_or(0, |l| l.gen + 1);
        let reader = match stream.try_clone() {
            Ok(r) => r,
            Err(e) => {
                eprintln!("aft-partyd: clone link to {party}: {e}");
                return;
            }
        };
        let events = tx.clone();
        std::thread::spawn(move || {
            let mut reader = reader;
            loop {
                match read_frame(&mut reader) {
                    Ok(Some(bytes)) => {
                        if events
                            .send(Event::Frame {
                                from: party,
                                gen,
                                bytes,
                            })
                            .is_err()
                        {
                            return;
                        }
                    }
                    Ok(None) | Err(_) => {
                        let _ = events.send(Event::PeerGone { party, gen });
                        return;
                    }
                }
            }
        });
        let (wtx, wrx): (Sender<Vec<u8>>, Receiver<Vec<u8>>) = channel();
        std::thread::spawn(move || {
            let mut stream = stream;
            while let Ok(bytes) = wrx.recv() {
                if write_frame(&mut stream, &bytes).is_err() {
                    return; // reader side reports the loss
                }
            }
        });
        if recovered {
            for frame in &self.outbox[party] {
                let _ = wtx.send(frame.clone());
            }
        }
        self.links[party] = Some(Link { tx: wtx, gen });
    }

    fn links_up(&self) -> usize {
        self.links.iter().filter(|l| l.is_some()).count()
    }

    /// Routes a batch of sends: self-addressed envelopes are delivered
    /// locally (breadth-first, like the simulator's queue), the rest are
    /// encoded once and handed to the per-peer writer.
    fn dispatch(&mut self, out: Vec<Outgoing>) {
        let mut pending: VecDeque<Outgoing> = out.into();
        while let Some(o) = pending.pop_front() {
            self.sent += 1;
            if o.to == self.me {
                let mut more = Vec::new();
                if self.node.deliver(self.me, o.session, o.payload, &mut more) {
                    self.delivered += 1;
                }
                pending.extend(more);
                continue;
            }
            let mut buf = Vec::new();
            if !encode_envelope(&o.session, &o.payload, &mut buf) {
                // Typed outputs never cross the wire; nothing honest
                // emits one as a send, so just surface and drop.
                eprintln!("aft-partyd: dropping non-wire payload to {}", o.to.0);
                continue;
            }
            self.outbox[o.to.0].push(buf.clone());
            if let Some(link) = &self.links[o.to.0] {
                let _ = link.tx.send(buf);
            }
        }
        self.report_output();
    }

    /// Prints the root session's output once, as soon as it exists.
    fn report_output(&mut self) {
        if self.output_reported {
            return;
        }
        if let Some(payload) = self.node.output(&self.session) {
            if let Some(text) = self.stack.render_output(payload) {
                println!("output {text}");
                let _ = std::io::stdout().flush();
                self.output_reported = true;
            }
        }
    }
}

fn main() {
    let args = parse_args();
    let registry = standard_registry();
    let config = args.scenario.config(args.seed);
    let me = PartyId(args.party);
    let n = args.scenario.n;

    let listener =
        TcpListener::bind("127.0.0.1:0").unwrap_or_else(|e| fatal(&format!("bind: {e}")));
    let addr = listener
        .local_addr()
        .unwrap_or_else(|e| fatal(&format!("local_addr: {e}")));
    println!("ready {addr}");
    let _ = std::io::stdout().flush();

    let (tx, rx) = channel::<Event>();

    // Supervisor control lines.
    let ctrl = tx.clone();
    std::thread::spawn(move || {
        let stdin = std::io::stdin();
        for line in stdin.lock().lines() {
            match line {
                Ok(l) => {
                    if ctrl.send(Event::Ctrl(Some(l))).is_err() {
                        return;
                    }
                }
                Err(_) => break,
            }
        }
        let _ = ctrl.send(Event::Ctrl(None));
    });

    // Peer accept loop: hello is [u32 party][u8 recovered].
    let accept = tx.clone();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { continue };
            let mut hello = [0u8; HELLO_LEN];
            if stream.read_exact(&mut hello).is_err() {
                continue;
            }
            let party = u32::from_le_bytes([hello[0], hello[1], hello[2], hello[3]]) as usize;
            let recovered = hello[4] != 0;
            if accept
                .send(Event::Link {
                    party,
                    recovered,
                    stream,
                })
                .is_err()
            {
                return;
            }
        }
    });

    let mut daemon = Daemon {
        me,
        node: party_node(&config, args.party),
        session: args.stack.session(),
        links: (0..n).map(|_| None).collect(),
        outbox: vec![Vec::new(); n],
        sent: 0,
        delivered: 0,
        output_reported: false,
        stack: args.stack,
    };
    let mut meshed_reported = false;
    let mut started = false;

    loop {
        let Ok(event) = rx.recv() else { break };
        match event {
            Event::Ctrl(None) => break,
            Event::Ctrl(Some(line)) => {
                let mut words = line.split_whitespace();
                match words.next() {
                    Some("peers") => {
                        let book: Vec<String> = words.map(str::to_string).collect();
                        if book.len() != n {
                            fatal(&format!("peers line has {} entries, want {n}", book.len()));
                        }
                        // Fresh daemons dial every lower-numbered party
                        // and accept the rest; a restarted daemon dials
                        // everyone (its peers' dials are long gone).
                        let targets: Vec<usize> = (0..n)
                            .filter(|&i| i != args.party && (args.recovered || i < args.party))
                            .collect();
                        for target in targets {
                            let addr = book[target].clone();
                            let hello_tx = tx.clone();
                            let (my_id, recovered) = (args.party, args.recovered);
                            std::thread::spawn(move || {
                                // The peer printed `ready` before the
                                // supervisor released the address book,
                                // so a short retry loop is enough.
                                for _ in 0..250 {
                                    if let Ok(mut stream) = TcpStream::connect(&addr) {
                                        let mut hello = [0u8; HELLO_LEN];
                                        hello[..4].copy_from_slice(&(my_id as u32).to_le_bytes());
                                        hello[4] = recovered as u8;
                                        if stream.write_all(&hello).is_ok() {
                                            let _ = hello_tx.send(Event::Link {
                                                party: target,
                                                recovered: false,
                                                stream,
                                            });
                                            return;
                                        }
                                    }
                                    std::thread::sleep(Duration::from_millis(20));
                                }
                                eprintln!("aft-partyd: cannot reach party {target} at {addr}");
                            });
                        }
                    }
                    Some("go") if !started => {
                        started = true;
                        match instance_for(&args.scenario, &registry, args.stack, me, args.seed) {
                            Ok((instance, crash)) => {
                                let out = daemon.node.spawn(daemon.session.clone(), instance);
                                if crash {
                                    // Whole-party crash at spawn: the
                                    // initial sends are retracted, as
                                    // on every in-process backend.
                                    daemon.node.crash();
                                } else {
                                    daemon.dispatch(out);
                                }
                            }
                            Err(e) => fatal(&e),
                        }
                    }
                    Some("shutdown") => break,
                    _ => {}
                }
            }
            Event::Link {
                party,
                recovered,
                stream,
            } => {
                if party >= n || party == args.party {
                    continue;
                }
                daemon.add_link(party, recovered, stream, &tx);
                if !meshed_reported && daemon.links_up() == n - 1 {
                    meshed_reported = true;
                    println!("meshed");
                    let _ = std::io::stdout().flush();
                }
            }
            Event::Frame { from, gen, bytes } => {
                if daemon.links[from].as_ref().is_none_or(|l| l.gen != gen) {
                    continue; // stale link generation
                }
                let Some((session, payload)) = decode_envelope(&bytes) else {
                    eprintln!("aft-partyd: malformed envelope header from {from}");
                    continue;
                };
                // The sender is the link's peer: envelopes carry no
                // sender field, so none can be spoofed.
                let mut out = Vec::new();
                if daemon
                    .node
                    .deliver(PartyId(from), session, payload, &mut out)
                {
                    daemon.delivered += 1;
                }
                daemon.dispatch(out);
            }
            Event::PeerGone { party, gen } => {
                if daemon.links[party].as_ref().is_some_and(|l| l.gen == gen) {
                    daemon.links[party] = None;
                }
            }
        }
    }
    println!(
        "metrics sent={} delivered={}",
        daemon.sent, daemon.delivered
    );
    println!("bye");
    let _ = std::io::stdout().flush();
}
