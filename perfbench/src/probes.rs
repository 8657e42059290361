//! Per-layer probes of the traced run, measured outside any op: the
//! executor's spawn and start-up costs, the channel layer's rings, the
//! wire codec and framing, link set-up, a pipelined burst, and the
//! hardware floors (raw sockets, raw memcpy) the layers are compared
//! with.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::UnixStream;
use std::time::Instant;

use executor::Runtime;
use rumpsteak::net::{encode_frame, loopback_pair_tcp, loopback_pair_uds, FrameDecoder, NetLink};
use rumpsteak::wire;

use crate::stats::median;
use crate::workload::{ensure, Rng};

/// Batches per probe; each probe reports the median batch.
const BATCHES: usize = 9;

/// Median over [`BATCHES`] batches of the nanoseconds per call of `f`,
/// called `per_batch` times a batch.
fn ns_per_call(per_batch: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..per_batch {
                f();
            }
            start.elapsed().as_nanos() as f64 / per_batch as f64
        })
        .collect();
    median(&samples)
}

/// Runs every probe; returns `(metric, value)` pairs.
pub fn run(threads: usize, seed: u64) -> Result<Vec<(String, f64)>, String> {
    let mut out = Vec::new();
    let mut put = |name: &str, value: f64| out.push((name.to_owned(), value));
    let rt = Runtime::new(threads);
    let mut rng = Rng::new(seed);

    // Executor.
    put(
        "executor.spawn_join_us",
        ns_per_call(500, || rt.block_on(rt.spawn(async {})).expect("empty task")) / 1e3,
    );
    let runtime_new: Vec<f64> = (0..BATCHES * 2)
        .map(|_| {
            let start = Instant::now();
            let fresh = Runtime::new(threads);
            let us = start.elapsed().as_secs_f64() * 1e6;
            drop(fresh);
            us
        })
        .collect();
    put("executor.runtime_new_us", median(&runtime_new));

    // Channel layer against the memcpy floor.
    let rounds = 4000;
    let hop = ns_per_call(1, || {
        assert_eq!(
            bench::channels::spsc_ping_pong(&rt, rounds),
            u64::from(rounds)
        );
    }) / f64::from(2 * rounds);
    put("channel.spsc_hop_ns", hop);
    let messages = 20_000;
    let burst = ns_per_call(1, || {
        assert_eq!(
            bench::channels::spsc_burst(&rt, messages),
            u64::from(messages)
        );
    }) / f64::from(messages);
    put("channel.spsc_burst_ns", burst);
    let pooled_messages = 2000;
    let pooled = ns_per_call(1, || {
        assert_eq!(
            bench::channels::spsc_burst_pooled(&rt, pooled_messages, 16 * 1024),
            u64::from(pooled_messages)
        );
    }) / f64::from(pooled_messages);
    put("channel.pooled_16k_ns", pooled);
    let source = rng.bytes(16 * 1024);
    let mut target = vec![0u8; 16 * 1024];
    let memcpy = ns_per_call(2000, || {
        target.copy_from_slice(std::hint::black_box(&source));
        std::hint::black_box(&mut target);
    });
    put("floor.memcpy_16k_ns", memcpy);
    put("channel.pooled_16k_floor_ratio", pooled / memcpy);

    // Wire codec and framing.
    let payload = rng.bytes(16 * 1024);
    let encoded = wire::to_bytes(&payload);
    let encode = ns_per_call(50, || {
        std::hint::black_box(wire::to_bytes(std::hint::black_box(&payload)));
    });
    put("wire.encode_ns_per_byte", encode / payload.len() as f64);
    let decode = ns_per_call(50, || {
        let decoded: Vec<u8> = wire::from_bytes(std::hint::black_box(&encoded)).expect("decodes");
        std::hint::black_box(decoded);
    });
    put("wire.decode_ns_per_byte", decode / payload.len() as f64);
    ensure(
        wire::from_bytes::<Vec<u8>>(&encoded).as_ref() == Ok(&payload),
        || "wire codec does not round-trip a 16 KiB payload".into(),
    )?;
    let frame_payload = rng.bytes(1024);
    let mut frame = Vec::new();
    put(
        "net.frame_encode_ns",
        ns_per_call(2000, || {
            frame.clear();
            encode_frame(std::hint::black_box(&frame_payload), &mut frame).expect("small frame");
        }),
    );
    let mut decoder = FrameDecoder::new();
    put(
        "net.frame_decode_ns",
        ns_per_call(2000, || {
            decoder.push(std::hint::black_box(&frame));
            let decoded = decoder
                .next_frame()
                .expect("valid frame")
                .expect("whole frame");
            std::hint::black_box(decoded);
        }),
    );

    // Sockets: the raw floor, then the framed links.
    let tcp_floor = raw_tcp_rtt_us()?;
    put("floor.tcp_rtt_8b_us", tcp_floor);
    let uds_floor = raw_uds_rtt_us()?;
    put("floor.uds_rtt_8b_us", uds_floor);
    let mut setup_ms = Vec::new();
    for i in 0..BATCHES * 2 {
        let start = Instant::now();
        let pair = if i % 2 == 0 {
            loopback_pair_tcp::<Vec<u8>>("ProbeA", "ProbeB", Some(1), Some(1))
        } else {
            loopback_pair_uds::<Vec<u8>>("ProbeA", "ProbeB", Some(1), Some(1))
        }
        .map_err(|e| format!("probe link: {e}"))?;
        setup_ms.push(start.elapsed().as_secs_f64() * 1e3);
        drop(pair);
    }
    put("net.link_setup_ms", median(&setup_ms));
    put("net.threads_per_link", threads_per_link(&rt)?);
    put("net.burst_64x1k_us", burst_us(&rt, &mut rng)?);
    Ok(out)
}

/// Round trips per raw-socket floor batch.
const FLOOR_TRIPS: usize = 400;

/// Median µs of an 8 B round trip against an echo thread, over raw
/// connected stream sockets.
fn raw_rtt_us<S: Read + Write + Send + 'static>(
    mut client: S,
    mut server: S,
) -> Result<f64, String> {
    let echo = std::thread::spawn(move || {
        let mut buf = [0u8; 8];
        while server.read_exact(&mut buf).is_ok() {
            if server.write_all(&buf).is_err() {
                break;
            }
        }
    });
    let mut trip = |value: u64| -> Result<(), String> {
        let mut buf = [0u8; 8];
        client
            .write_all(&value.to_le_bytes())
            .map_err(|e| e.to_string())?;
        client.read_exact(&mut buf).map_err(|e| e.to_string())?;
        ensure(buf == value.to_le_bytes(), || "raw echo differs".into())
    };
    for i in 0..FLOOR_TRIPS as u64 {
        trip(i)?;
    }
    let mut samples = Vec::new();
    for _ in 0..BATCHES {
        let start = Instant::now();
        for i in 0..FLOOR_TRIPS as u64 {
            trip(i)?;
        }
        samples.push(start.elapsed().as_secs_f64() * 1e6 / FLOOR_TRIPS as f64);
    }
    // Hanging up ends the echo thread's read.
    drop(client);
    echo.join().map_err(|_| "echo thread panicked".to_owned())?;
    Ok(median(&samples))
}

fn raw_tcp_rtt_us() -> Result<f64, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let client = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    let (server, _) = listener.accept().map_err(|e| e.to_string())?;
    for socket in [&client, &server] {
        socket.set_nodelay(true).map_err(|e| e.to_string())?;
    }
    raw_rtt_us(client, server)
}

fn raw_uds_rtt_us() -> Result<f64, String> {
    let (client, server) = UnixStream::pair().map_err(|e| e.to_string())?;
    raw_rtt_us(client, server)
}

fn task_count() -> Result<usize, String> {
    Ok(std::fs::read_dir("/proc/self/task")
        .map_err(|e| format!("/proc/self/task: {e}"))?
        .count())
}

/// OS threads one framed link holds once it has carried traffic.
fn threads_per_link(rt: &Runtime) -> Result<f64, String> {
    let before = task_count()?;
    let (mut a, mut b) = loopback_pair_tcp::<Vec<u8>>("ProbeA", "ProbeB", Some(1), Some(1))
        .map_err(|e| format!("probe link: {e}"))?;
    let echo = rt.spawn(async move {
        if let Some(message) = b.recv().await {
            let _ = b.send(message).await;
        }
        b
    });
    let echoed = rt.block_on(async {
        a.send(vec![1, 2, 3]).await.ok()?;
        a.recv().await
    });
    ensure(echoed == Some(vec![1, 2, 3]), || {
        "probe echo differs".into()
    })?;
    let b = rt
        .block_on(echo)
        .map_err(|_| "probe echo task failed".to_owned())?;
    let after = task_count()?;
    drop((a, b));
    Ok((after - before) as f64 / 2.0)
}

/// Messages and bytes of one pipelined burst.
const BURST_MESSAGES: usize = 64;
const BURST_BYTES: usize = 1024;

/// Median µs of a 64 × 1 KiB burst over a TCP link at window 64, from
/// the first send to the last message received.
fn burst_us(rt: &Runtime, rng: &mut Rng) -> Result<f64, String> {
    let (mut source, sink): (NetLink<Vec<u8>>, _) = loopback_pair_tcp(
        "ProbeBurstSrc",
        "ProbeBurstSink",
        Some(BURST_MESSAGES),
        Some(1),
    )
    .map_err(|e| format!("burst link: {e}"))?;
    let payload = rng.bytes(BURST_BYTES);
    let mut sink = Some(sink);
    let mut samples = Vec::new();
    for _ in 0..BATCHES * 3 {
        let mut receiver = sink.take().expect("sink returned by the last burst");
        let start = Instant::now();
        let consumer = rt.spawn(async move {
            let mut bytes = 0;
            for _ in 0..BURST_MESSAGES {
                bytes += receiver.recv().await.map_or(0, |m| m.len());
            }
            (receiver, bytes)
        });
        rt.block_on(async {
            for _ in 0..BURST_MESSAGES {
                source
                    .send(payload.clone())
                    .await
                    .map_err(|_| "burst sink gone")?;
            }
            Ok::<_, &str>(())
        })?;
        let (receiver, bytes) = rt
            .block_on(consumer)
            .map_err(|_| "burst consumer failed".to_owned())?;
        samples.push(start.elapsed().as_secs_f64() * 1e6);
        ensure(bytes == BURST_MESSAGES * BURST_BYTES, || {
            format!("burst delivered {bytes} B")
        })?;
        sink = Some(receiver);
    }
    Ok(median(&samples))
}
