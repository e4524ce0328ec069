//! The readiness reactor: many connections, one thread.
//!
//! A [`Reactor`] owns a `netpoll` poller plus a slab of sockets, each
//! beside its [`Transport`] and caller-supplied per-connection state
//! (the coordinator hangs handshake/deadline bookkeeping here; the
//! agent loop hangs the index of the agent's slot). Tokens are slab
//! indices, so event dispatch is an array lookup — no hashing on the
//! hot path — and a freed slot's storage is reused by the next accept.
//!
//! The reactor registers every connection read-interested and toggles
//! write interest to follow [`Transport::wants_write`]: a connection
//! with an empty outbound queue never wakes the poller for writability
//! (level-triggered `EPOLLOUT` on an idle socket would busy-spin).
//!
//! One extra descriptor — the coordinator's listener — registers under
//! the reserved [`LISTENER_TOKEN`], far above any slab index.

use std::io;
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::Duration;

use netpoll::{Interest, PollEvent, Poller};

use crate::transport::Transport;

/// Token reserved for the accept listener (never a slab index).
pub const LISTENER_TOKEN: u64 = u64::MAX;

struct Entry<T> {
    stream: TcpStream,
    transport: Transport,
    data: T,
    /// Last interest registered with the poller, to skip no-op
    /// `modify` syscalls.
    writable: bool,
}

/// A slab of connections multiplexed onto one poller. See the module
/// docs.
pub struct Reactor<T> {
    poller: Poller,
    slots: Vec<Option<Entry<T>>>,
    free: Vec<usize>,
    events: Vec<PollEvent>,
    count: usize,
}

impl<T> Reactor<T> {
    /// An empty reactor.
    pub fn new() -> io::Result<Reactor<T>> {
        Ok(Reactor {
            poller: Poller::new()?,
            slots: Vec::new(),
            free: Vec::new(),
            events: Vec::new(),
            count: 0,
        })
    }

    /// Live connections.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the reactor holds no connections.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Register the accept listener under [`LISTENER_TOKEN`]. The
    /// listener must already be nonblocking.
    pub fn register_listener(&self, listener: &impl AsRawFd) -> io::Result<()> {
        self.poller
            .register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ)
    }

    /// Adopt a connection: switch its socket nonblocking, register it
    /// with the poller, and store it with its transport and
    /// per-connection state. Returns the connection's token.
    pub fn insert(&mut self, stream: TcpStream, transport: Transport, data: T) -> io::Result<u64> {
        stream.set_nonblocking(true)?;
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            self.slots.len() - 1
        });
        let token = slot as u64;
        let writable = transport.wants_write();
        let interest = if writable {
            Interest::READ_WRITE
        } else {
            Interest::READ
        };
        if let Err(e) = self.poller.register(stream.as_raw_fd(), token, interest) {
            self.free.push(slot);
            return Err(e);
        }
        self.slots[slot] = Some(Entry {
            stream,
            transport,
            data,
            writable,
        });
        self.count += 1;
        Ok(token)
    }

    /// Drop a connection, deregistering and closing its socket. Returns
    /// its state.
    pub fn remove(&mut self, token: u64) -> Option<T> {
        let slot = usize::try_from(token).ok()?;
        let entry = self.slots.get_mut(slot)?.take()?;
        let _ = self.poller.deregister(entry.stream.as_raw_fd());
        self.free.push(slot);
        self.count -= 1;
        Some(entry.data)
    }

    /// Mutable access to one connection: its transport, its socket (for
    /// the transport to flush into and fill from) and its state.
    pub fn get_mut(&mut self, token: u64) -> Option<(&mut Transport, &mut TcpStream, &mut T)> {
        let slot = usize::try_from(token).ok()?;
        let entry = self.slots.get_mut(slot)?.as_mut()?;
        Some((&mut entry.transport, &mut entry.stream, &mut entry.data))
    }

    /// Re-sync this connection's poller interest with its transport's
    /// queue state. Call after sends and flushes.
    pub fn update_interest(&mut self, token: u64) -> io::Result<()> {
        let slot = match usize::try_from(token) {
            Ok(s) => s,
            Err(_) => return Ok(()),
        };
        let Some(entry) = self.slots.get_mut(slot).and_then(Option::as_mut) else {
            return Ok(());
        };
        let wants = entry.transport.wants_write();
        if wants == entry.writable {
            return Ok(());
        }
        let interest = if wants {
            Interest::READ_WRITE
        } else {
            Interest::READ
        };
        self.poller
            .modify(entry.stream.as_raw_fd(), token, interest)?;
        entry.writable = wants;
        Ok(())
    }

    /// Every live token (snapshot — safe to `remove` while iterating
    /// the result). Used for periodic sweeps, not the event path.
    pub fn tokens(&self) -> Vec<u64> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, e)| e.is_some())
            .map(|(i, _)| i as u64)
            .collect()
    }

    /// Block until readiness or timeout; the events are left in an
    /// internal buffer (take them with [`Reactor::drain_events`]).
    pub fn poll(&mut self, timeout: Option<Duration>) -> io::Result<usize> {
        let mut events = std::mem::take(&mut self.events);
        let n = self.poller.wait(&mut events, timeout)?;
        self.events = events;
        Ok(n)
    }

    /// Take the events from the last [`Reactor::poll`].
    pub fn drain_events(&mut self) -> Vec<PollEvent> {
        std::mem::take(&mut self.events)
    }

    /// Return an event buffer for reuse (avoids reallocating per poll).
    pub fn recycle_events(&mut self, mut events: Vec<PollEvent>) {
        events.clear();
        self.events = events;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::WireMsg;
    use std::net::TcpListener;

    /// A connected loopback socket pair.
    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    #[test]
    fn slab_reuses_slots_and_tracks_count() {
        let mut r: Reactor<u32> = Reactor::new().unwrap();
        let (a1, _k1) = pair();
        let (a2, _k2) = pair();
        let t1 = r.insert(a1, Transport::new(), 1).unwrap();
        let t2 = r.insert(a2, Transport::new(), 2).unwrap();
        assert_eq!(r.len(), 2);
        assert_ne!(t1, t2);
        let data = r.remove(t1).unwrap();
        assert_eq!(data, 1);
        assert_eq!(r.len(), 1);
        let (a3, _k3) = pair();
        let t3 = r.insert(a3, Transport::new(), 3).unwrap();
        assert_eq!(t3, t1, "freed slot is reused");
        assert_eq!(r.tokens().len(), 2);
        assert!(r.get_mut(t2).is_some());
        assert!(r.remove(999).is_none());
    }

    #[test]
    fn readable_event_carries_the_right_token() {
        let mut r: Reactor<()> = Reactor::new().unwrap();
        let (server, mut client) = pair();
        let token = r.insert(server, Transport::new(), ()).unwrap();

        use std::io::Write;
        let frame = crate::wire::encode(&WireMsg::Heartbeat { epoch: 5 }).unwrap();
        client.write_all(&frame).unwrap();

        let n = r.poll(Some(Duration::from_secs(2))).unwrap();
        assert!(n >= 1);
        let events = r.drain_events();
        assert!(events.iter().any(|e| e.token == token && e.readable));

        let (transport, stream, _) = r.get_mut(token).unwrap();
        assert!(matches!(
            transport.fill(stream, 0.0).unwrap(),
            crate::transport::FillStatus::Progress
        ));
        assert_eq!(
            transport.next_msg().unwrap(),
            Some(WireMsg::Heartbeat { epoch: 5 })
        );
        r.recycle_events(events);
    }

    #[test]
    fn write_interest_follows_the_queue() {
        let mut r: Reactor<()> = Reactor::new().unwrap();
        let (server, _client) = pair();
        let token = r.insert(server, Transport::new(), ()).unwrap();
        // Idle connection: no writable wakeups even though the socket
        // could accept bytes (write interest is off).
        let n = r.poll(Some(Duration::from_millis(30))).unwrap();
        assert_eq!(n, 0, "idle connection must not wake the poller");

        // Queue a frame without flushing: interest flips on and the
        // poller reports writability.
        let (transport, _, _) = r.get_mut(token).unwrap();
        transport
            .send(&WireMsg::Heartbeat { epoch: 1 }, 0.0)
            .unwrap();
        assert!(transport.wants_write());
        r.update_interest(token).unwrap();
        let n = r.poll(Some(Duration::from_secs(2))).unwrap();
        assert!(n >= 1);
        let events = r.drain_events();
        assert!(events.iter().any(|e| e.token == token && e.writable));

        // Flush; interest flips back off.
        let (transport, stream, _) = r.get_mut(token).unwrap();
        transport.flush(stream, 0.0).unwrap();
        assert!(!transport.wants_write());
        r.update_interest(token).unwrap();
        r.recycle_events(events);
        let n = r.poll(Some(Duration::from_millis(30))).unwrap();
        assert_eq!(n, 0);
    }
}
