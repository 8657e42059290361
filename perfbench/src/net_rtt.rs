//! `net_rtt`: framed round trips over one TCP and one Unix-domain
//! `NetLink` pair (window 1), each echoed by a task on the runtime. One
//! op is a round trip at each payload size on each socket kind, in
//! seeded order, with every echo compared byte for byte.

use executor::{JoinHandle, Runtime};
use rumpsteak::net::{loopback_pair_tcp, loopback_pair_uds, NetLink};

use crate::trace::Tracer;
use crate::workload::{ensure, shuffled, Rng, Workload};

/// Payload sizes of one op, smallest (per-message cost) to largest
/// (per-byte cost).
const SIZES: [usize; 3] = [8, 1024, 16 * 1024];
/// Send window of both directions: an alternating exchange never has
/// more than one message in flight.
const WINDOW: usize = 1;
/// Distinct seeded payload sets the ops cycle through.
const PAYLOAD_SETS: usize = 16;

/// Span name of each round trip, indexed `kind * 3 + size`.
const ROUND_TRIPS: [&str; 6] = [
    "net.rtt_tcp_8b",
    "net.rtt_tcp_1k",
    "net.rtt_tcp_16k",
    "net.rtt_uds_8b",
    "net.rtt_uds_1k",
    "net.rtt_uds_16k",
];

type Link = NetLink<Vec<u8>>;

pub struct NetRtt {
    rt: Runtime,
    /// Client ends: TCP, then UDS.
    clients: [Link; 2],
    echoes: Vec<JoinHandle<()>>,
    payloads: Vec<[Vec<u8>; 3]>,
    rng: Rng,
}

/// Echoes every message back until the client hangs up.
async fn echo(mut link: Link) {
    while let Some(message) = link.recv().await {
        if link.send(message).await.is_err() {
            break;
        }
    }
}

impl NetRtt {
    pub fn setup(seed: u64, threads: usize) -> Result<Self, String> {
        let rt = Runtime::new(threads);
        let (tcp, tcp_echo) =
            loopback_pair_tcp::<Vec<u8>>("BenchTcp", "BenchTcpEcho", Some(WINDOW), Some(WINDOW))
                .map_err(|e| format!("tcp link: {e}"))?;
        let (uds, uds_echo) =
            loopback_pair_uds::<Vec<u8>>("BenchUds", "BenchUdsEcho", Some(WINDOW), Some(WINDOW))
                .map_err(|e| format!("uds link: {e}"))?;
        let echoes = vec![rt.spawn(echo(tcp_echo)), rt.spawn(echo(uds_echo))];
        let mut rng = Rng::new(seed);
        let payloads = (0..PAYLOAD_SETS)
            .map(|_| SIZES.map(|size| rng.bytes(size)))
            .collect();
        Ok(Self {
            rt,
            clients: [tcp, uds],
            echoes,
            payloads,
            rng,
        })
    }
}

impl Workload for NetRtt {
    fn op(&mut self, t: &mut Tracer, op: u64) -> Result<(), String> {
        let payloads = &self.payloads[op as usize % PAYLOAD_SETS];
        for trip in shuffled(&mut self.rng, ROUND_TRIPS.len()) {
            let name = ROUND_TRIPS[trip];
            let payload = &payloads[trip % 3];
            let message = payload.clone();
            let link = &mut self.clients[trip / 3];
            let rt = &self.rt;
            let echoed = t.span(name, |_| {
                rt.block_on(async {
                    link.send(message).await.ok()?;
                    link.recv().await
                })
            });
            ensure(echoed.as_ref() == Some(payload), || {
                format!("{name}: echo differs from the {} B payload", payload.len())
            })?;
        }
        Ok(())
    }

    fn teardown(self: Box<Self>) {
        let Self {
            rt,
            clients,
            echoes,
            ..
        } = *self;
        // Hanging up ends each echo task, which drops its end of the link.
        drop(clients);
        for echo in echoes {
            let _ = rt.block_on(echo);
        }
    }
}
