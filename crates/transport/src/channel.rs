//! The in-process [`Wire`] backend: frames pass by value over
//! crossbeam channels between rank threads — no serialization, no
//! sockets, no heartbeats (a thread cannot be SIGKILLed out from under
//! the mesh; explicit disconnection is the only death signal).
//!
//! This is the backend the protocol unit tests drive, including the
//! fault-injecting wrappers that drop, duplicate, and reorder frames
//! to exercise the §5d reliability layer in `collectives::exec_peer`,
//! and the mesh under the in-process fault path
//! (`collectives::fault_wire`), where [`ChannelWire::hang_up`] is how a
//! crashed rank thread stops talking.

use std::time::Duration;

use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use parking_lot::Mutex;

use crate::frame::Frame;
use crate::{Wire, WireError};

/// One rank's endpoint of an in-process full mesh.
pub struct ChannelWire {
    rank: usize,
    world_ids: Vec<usize>,
    /// Indexed by original id: sender toward that peer.
    tx: Vec<Option<Sender<Frame>>>,
    /// Indexed by original id: receiver from that peer.
    rx: Vec<Option<Mutex<Receiver<Frame>>>>,
}

impl ChannelWire {
    /// Build a full mesh over original ids `0..world`, one wire per
    /// rank. Channels are bounded generously — a schedule's in-flight
    /// frame count is bounded by its round structure.
    pub fn mesh(world: usize) -> Vec<ChannelWire> {
        let ids: Vec<usize> = (0..world).collect();
        // links[a][b] = channel a -> b
        let mut senders: Vec<Vec<Option<Sender<Frame>>>> =
            (0..world).map(|_| (0..world).map(|_| None).collect()).collect();
        let mut receivers: Vec<Vec<Option<Mutex<Receiver<Frame>>>>> =
            (0..world).map(|_| (0..world).map(|_| None).collect()).collect();
        for a in 0..world {
            for b in 0..world {
                if a == b {
                    continue;
                }
                let (s, r) = bounded(4096);
                senders[a][b] = Some(s);
                receivers[b][a] = Some(Mutex::new(r));
            }
        }
        senders
            .into_iter()
            .zip(receivers)
            .enumerate()
            .map(|(rank, (tx, rx))| ChannelWire { rank, world_ids: ids.clone(), tx, rx })
            .collect()
    }

    /// Drop this wire's sender toward `peer` — the in-process analogue
    /// of a process death: the peer drains what was sent, then sees
    /// [`WireError::PeerGone`].
    pub fn hang_up(&mut self, peer: usize) {
        if let Some(slot) = self.tx.get_mut(peer) {
            *slot = None;
        }
    }
}

impl Wire for ChannelWire {
    fn rank(&self) -> usize {
        self.rank
    }

    fn world_ids(&self) -> &[usize] {
        &self.world_ids
    }

    fn send(&self, peer: usize, frame: &Frame) -> Result<(), WireError> {
        if peer == self.rank {
            return Err(WireError::NoSuchPeer(peer));
        }
        let tx = self
            .tx
            .get(peer)
            .ok_or(WireError::NoSuchPeer(peer))?
            .as_ref()
            .ok_or(WireError::PeerGone)?;
        tx.send(frame.clone()).map_err(|_| WireError::PeerGone)
    }

    fn recv_timeout(&self, peer: usize, timeout: Duration) -> Result<Frame, WireError> {
        let rx = self
            .rx
            .get(peer)
            .ok_or(WireError::NoSuchPeer(peer))?
            .as_ref()
            .ok_or(WireError::NoSuchPeer(peer))?
            .lock();
        // Drain-before-gone: a disconnected channel still yields its
        // queued frames through try_recv.
        match rx.try_recv() {
            Ok(f) => return Ok(f),
            Err(TryRecvError::Disconnected) => return Err(WireError::PeerGone),
            Err(TryRecvError::Empty) => {}
        }
        match rx.recv_timeout(timeout) {
            Ok(f) => Ok(f),
            Err(RecvTimeoutError::Timeout) => Err(WireError::Timeout),
            Err(RecvTimeoutError::Disconnected) => Err(WireError::PeerGone),
        }
    }

    fn silence(&self, _peer: usize) -> Duration {
        // Channels do not go silent: disconnection is explicit, so the
        // heartbeat death bound never trips on this backend.
        Duration::ZERO
    }

    fn release(&self, _payload: Vec<u8>) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameKind;

    #[test]
    fn mesh_routes_by_original_id() {
        let wires = ChannelWire::mesh(3);
        let mut f = Frame::control(FrameKind::Data, 0, 0, 1);
        f.payload = vec![7];
        wires[0].send(2, &f).unwrap();
        let got = wires[2].recv_timeout(0, Duration::from_millis(100)).unwrap();
        assert_eq!(got, f);
        assert_eq!(wires[1].recv_timeout(0, Duration::from_millis(10)), Err(WireError::Timeout));
    }

    #[test]
    fn hang_up_reports_peer_gone() {
        let mut wires = ChannelWire::mesh(2);
        let f = Frame::control(FrameKind::Data, 1, 0, 0);
        wires[1].send(0, &f).unwrap();
        wires[1].hang_up(0);
        // Queued frame drains first, then the hangup surfaces.
        assert!(wires[0].recv_timeout(1, Duration::from_millis(100)).is_ok());
        assert_eq!(wires[0].recv_timeout(1, Duration::from_millis(100)), Err(WireError::PeerGone));
    }

    #[test]
    fn send_to_self_or_unknown_is_rejected() {
        let wires = ChannelWire::mesh(2);
        let f = Frame::control(FrameKind::Data, 0, 0, 0);
        assert_eq!(wires[0].send(0, &f), Err(WireError::NoSuchPeer(0)));
        assert_eq!(wires[0].send(9, &f), Err(WireError::NoSuchPeer(9)));
    }
}
