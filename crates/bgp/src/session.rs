//! BGP session finite-state machine (RFC 4271 §8, simplified).
//!
//! LIFEGUARD's deployment injects its crafted announcements through real
//! BGP sessions to the BGP-Mux testbed. This module provides the session
//! layer a production deployment needs on top of the [`crate::wire`] codec:
//! the Idle → Connect → OpenSent → OpenConfirm → Established state machine,
//! hold/keepalive timers, version and hold-time negotiation, and
//! notification-on-error semantics.
//!
//! The FSM is sans-IO in the smoltcp style: callers feed it events
//! (transport up/down, decoded messages, clock ticks) and collect actions
//! (messages to send, route updates to apply, session resets). This keeps
//! it deterministic and directly testable without sockets.

use crate::wire::{Message, NotificationMsg, OpenMsg, UpdateMsg};

/// Session states (RFC 4271 §8.2.2; Connect/Active are collapsed into
/// [`State::Connect`] since the transport is abstracted).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum State {
    /// Not trying to connect.
    Idle,
    /// Waiting for the transport to come up.
    Connect,
    /// OPEN sent, waiting for the peer's OPEN.
    OpenSent,
    /// OPEN exchanged, waiting for the first KEEPALIVE.
    OpenConfirm,
    /// Session up; UPDATEs flow.
    Established,
}

/// Inputs to the FSM.
#[derive(Clone, Debug)]
pub enum SessionEvent {
    /// Operator starts the session.
    ManualStart,
    /// Operator stops the session.
    ManualStop,
    /// The transport connected.
    TransportUp,
    /// The transport failed or closed.
    TransportDown,
    /// A decoded message arrived from the peer.
    Recv(Message),
    /// The clock advanced to `now_ms`.
    Tick(u64),
}

/// Outputs of the FSM.
#[derive(Clone, Debug, PartialEq)]
pub enum Action {
    /// Open the transport to the peer.
    Connect,
    /// Close the transport.
    Disconnect,
    /// Send a message to the peer.
    Send(Message),
    /// Deliver a received, validated UPDATE to the RIB layer.
    DeliverUpdate(UpdateMsg),
    /// The session reached Established.
    SessionUp {
        /// Peer's ASN from its OPEN.
        peer_as: u32,
        /// Negotiated hold time (seconds).
        hold_time: u16,
    },
    /// The session went down (error code of the NOTIFICATION that was sent
    /// or received, when applicable).
    SessionDown {
        /// NOTIFICATION error code, 0 when the transport simply dropped.
        code: u8,
    },
}

/// Session configuration.
#[derive(Clone, Copy, Debug)]
pub struct SessionConfig {
    /// Our ASN.
    pub my_as: u32,
    /// Our BGP identifier.
    pub bgp_id: u32,
    /// Proposed hold time in seconds (0 disables keepalives; RFC minimum
    /// otherwise is 3).
    pub hold_time: u16,
    /// Peer ASN we expect (0 = accept any).
    pub expected_peer_as: u32,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            my_as: 64_512,
            bgp_id: 0x0A00_0001,
            hold_time: 90,
            expected_peer_as: 0,
        }
    }
}

/// The session FSM.
#[derive(Debug)]
pub struct Session {
    cfg: SessionConfig,
    state: State,
    /// Negotiated hold time (min of ours and the peer's), seconds.
    negotiated_hold: u16,
    peer_as: u32,
    /// Timestamps in ms (driven by `Tick`).
    now_ms: u64,
    last_recv_ms: u64,
    last_sent_ms: u64,
}

impl Session {
    /// New idle session.
    pub fn new(cfg: SessionConfig) -> Self {
        Session {
            cfg,
            state: State::Idle,
            negotiated_hold: cfg.hold_time,
            peer_as: 0,
            now_ms: 0,
            last_recv_ms: 0,
            last_sent_ms: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> State {
        self.state
    }

    /// Negotiated hold time in seconds (valid once Established).
    pub fn hold_time(&self) -> u16 {
        self.negotiated_hold
    }

    /// Peer ASN (valid once OpenConfirm+).
    pub fn peer_as(&self) -> u32 {
        self.peer_as
    }

    fn open_msg(&self) -> Message {
        Message::Open(OpenMsg {
            my_as: self.cfg.my_as,
            hold_time: self.cfg.hold_time,
            bgp_id: self.cfg.bgp_id,
            four_octet_as: true,
        })
    }

    fn notification(code: u8, subcode: u8) -> Message {
        Message::Notification(NotificationMsg {
            code,
            subcode,
            data: Vec::new(),
        })
    }

    fn reset(&mut self, actions: &mut Vec<Action>, code: u8) {
        if self.state != State::Idle {
            actions.push(Action::Disconnect);
            actions.push(Action::SessionDown { code });
        }
        self.state = State::Idle;
        self.peer_as = 0;
    }

    /// Drive the FSM with one event; returns the actions to perform, in
    /// order.
    pub fn handle(&mut self, event: SessionEvent) -> Vec<Action> {
        let mut actions = Vec::new();
        match event {
            SessionEvent::ManualStart => {
                if self.state == State::Idle {
                    self.state = State::Connect;
                    actions.push(Action::Connect);
                }
            }
            SessionEvent::ManualStop => {
                if self.state == State::Established || self.state == State::OpenConfirm {
                    // Cease notification.
                    actions.push(Action::Send(Self::notification(6, 0)));
                }
                self.reset(&mut actions, 6);
            }
            SessionEvent::TransportUp => {
                if self.state == State::Connect {
                    actions.push(Action::Send(self.open_msg()));
                    self.last_sent_ms = self.now_ms;
                    self.state = State::OpenSent;
                }
            }
            SessionEvent::TransportDown => {
                self.reset(&mut actions, 0);
            }
            SessionEvent::Recv(msg) => self.handle_msg(msg, &mut actions),
            SessionEvent::Tick(now_ms) => self.handle_tick(now_ms, &mut actions),
        }
        actions
    }

    fn handle_msg(&mut self, msg: Message, actions: &mut Vec<Action>) {
        self.last_recv_ms = self.now_ms;
        match (self.state, msg) {
            (State::OpenSent, Message::Open(open)) => {
                // Validate the peer's OPEN.
                if self.cfg.expected_peer_as != 0 && open.my_as != self.cfg.expected_peer_as {
                    // OPEN error, bad peer AS.
                    actions.push(Action::Send(Self::notification(2, 2)));
                    self.reset(actions, 2);
                    return;
                }
                if open.hold_time != 0 && open.hold_time < 3 {
                    // Unacceptable hold time.
                    actions.push(Action::Send(Self::notification(2, 6)));
                    self.reset(actions, 2);
                    return;
                }
                self.peer_as = open.my_as;
                self.negotiated_hold = if open.hold_time == 0 || self.cfg.hold_time == 0 {
                    0
                } else {
                    open.hold_time.min(self.cfg.hold_time)
                };
                actions.push(Action::Send(Message::Keepalive));
                self.last_sent_ms = self.now_ms;
                self.state = State::OpenConfirm;
            }
            (State::OpenConfirm, Message::Keepalive) => {
                self.state = State::Established;
                actions.push(Action::SessionUp {
                    peer_as: self.peer_as,
                    hold_time: self.negotiated_hold,
                });
            }
            (State::Established, Message::Keepalive) => {
                // Hold timer refreshed by last_recv_ms above.
            }
            (State::Established, Message::Update(u)) => {
                actions.push(Action::DeliverUpdate(u));
            }
            (_, Message::Notification(n)) => {
                self.reset(actions, n.code);
            }
            (state, unexpected) => {
                // FSM error: message not expected in this state.
                let _ = (state, unexpected);
                actions.push(Action::Send(Self::notification(5, 0)));
                self.reset(actions, 5);
            }
        }
    }

    fn handle_tick(&mut self, now_ms: u64, actions: &mut Vec<Action>) {
        self.now_ms = now_ms;
        if self.negotiated_hold == 0 {
            return;
        }
        let hold_ms = self.negotiated_hold as u64 * 1000;
        let keepalive_ms = hold_ms / 3; // RFC-recommended ratio
        match self.state {
            State::Established | State::OpenConfirm => {
                if now_ms.saturating_sub(self.last_recv_ms) >= hold_ms {
                    // Hold timer expired.
                    actions.push(Action::Send(Self::notification(4, 0)));
                    self.reset(actions, 4);
                    return;
                }
                if now_ms.saturating_sub(self.last_sent_ms) >= keepalive_ms {
                    actions.push(Action::Send(Message::Keepalive));
                    self.last_sent_ms = now_ms;
                }
            }
            State::OpenSent if now_ms.saturating_sub(self.last_sent_ms) >= hold_ms.max(240_000) => {
                // Large hold timer while waiting for OPEN (RFC suggests
                // 4 minutes).
                actions.push(Action::Send(Self::notification(4, 0)));
                self.reset(actions, 4);
            }
            _ => {}
        }
    }

    /// Queue an UPDATE for sending (only valid when Established). Returns
    /// the send action, or `None` when the session is not up.
    pub fn send_update(&mut self, update: UpdateMsg) -> Option<Action> {
        if self.state != State::Established {
            return None;
        }
        self.last_sent_ms = self.now_ms;
        Some(Action::Send(Message::Update(update)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::AsPath;
    use crate::prefix::Prefix;
    use crate::wire::Origin;
    use lg_asmap::AsId;

    fn peer_open(asn: u32, hold: u16) -> Message {
        Message::Open(OpenMsg {
            my_as: asn,
            hold_time: hold,
            bgp_id: 99,
            four_octet_as: true,
        })
    }

    /// Drive a session through the full handshake; returns it Established.
    fn established() -> Session {
        let mut s = Session::new(SessionConfig::default());
        assert_eq!(s.handle(SessionEvent::ManualStart), vec![Action::Connect]);
        let a = s.handle(SessionEvent::TransportUp);
        assert!(matches!(a[0], Action::Send(Message::Open(_))));
        assert_eq!(s.state(), State::OpenSent);
        let a = s.handle(SessionEvent::Recv(peer_open(65_001, 90)));
        assert_eq!(a, vec![Action::Send(Message::Keepalive)]);
        assert_eq!(s.state(), State::OpenConfirm);
        let a = s.handle(SessionEvent::Recv(Message::Keepalive));
        assert_eq!(
            a,
            vec![Action::SessionUp {
                peer_as: 65_001,
                hold_time: 90
            }]
        );
        assert_eq!(s.state(), State::Established);
        s
    }

    #[test]
    fn full_handshake() {
        let s = established();
        assert_eq!(s.peer_as(), 65_001);
        assert_eq!(s.hold_time(), 90);
    }

    #[test]
    fn hold_time_negotiates_to_minimum() {
        let mut s = Session::new(SessionConfig {
            hold_time: 180,
            ..SessionConfig::default()
        });
        s.handle(SessionEvent::ManualStart);
        s.handle(SessionEvent::TransportUp);
        s.handle(SessionEvent::Recv(peer_open(65_001, 30)));
        assert_eq!(s.hold_time(), 30);
    }

    #[test]
    fn rejects_wrong_peer_as() {
        let mut s = Session::new(SessionConfig {
            expected_peer_as: 65_002,
            ..SessionConfig::default()
        });
        s.handle(SessionEvent::ManualStart);
        s.handle(SessionEvent::TransportUp);
        let a = s.handle(SessionEvent::Recv(peer_open(65_001, 90)));
        assert!(matches!(
            a[0],
            Action::Send(Message::Notification(NotificationMsg {
                code: 2,
                subcode: 2,
                ..
            }))
        ));
        assert_eq!(s.state(), State::Idle);
    }

    #[test]
    fn rejects_tiny_hold_time() {
        let mut s = Session::new(SessionConfig::default());
        s.handle(SessionEvent::ManualStart);
        s.handle(SessionEvent::TransportUp);
        let a = s.handle(SessionEvent::Recv(peer_open(65_001, 2)));
        assert!(matches!(
            a[0],
            Action::Send(Message::Notification(NotificationMsg {
                code: 2,
                subcode: 6,
                ..
            }))
        ));
    }

    #[test]
    fn updates_flow_when_established() {
        let mut s = established();
        let update = UpdateMsg {
            origin: Some(Origin::Igp),
            as_path: Some(AsPath::poisoned(AsId(64_512), &[AsId(3356)])),
            next_hop: Some(1),
            nlri: vec![Prefix::from_octets(184, 164, 224, 0, 20)],
            ..UpdateMsg::default()
        };
        // Outbound.
        let a = s.send_update(update.clone()).unwrap();
        assert!(matches!(a, Action::Send(Message::Update(_))));
        // Inbound.
        let a = s.handle(SessionEvent::Recv(Message::Update(update.clone())));
        assert_eq!(a, vec![Action::DeliverUpdate(update)]);
    }

    #[test]
    fn cannot_send_updates_before_established() {
        let mut s = Session::new(SessionConfig::default());
        s.handle(SessionEvent::ManualStart);
        assert!(s.send_update(UpdateMsg::default()).is_none());
    }

    #[test]
    fn keepalives_are_sent_on_schedule() {
        let mut s = established();
        // Hold 90s -> keepalive every 30s.
        let a = s.handle(SessionEvent::Tick(29_000));
        assert!(a.is_empty());
        let a = s.handle(SessionEvent::Tick(30_000));
        assert_eq!(a, vec![Action::Send(Message::Keepalive)]);
        // Not again immediately.
        let a = s.handle(SessionEvent::Tick(31_000));
        assert!(a.is_empty());
    }

    #[test]
    fn hold_timer_expiry_tears_down() {
        let mut s = established();
        // Silence for the full hold time.
        let a = s.handle(SessionEvent::Tick(90_000));
        assert!(matches!(
            a[0],
            Action::Send(Message::Notification(NotificationMsg { code: 4, .. }))
        ));
        assert!(a.contains(&Action::SessionDown { code: 4 }));
        assert_eq!(s.state(), State::Idle);
    }

    #[test]
    fn keepalives_refresh_hold_timer() {
        let mut s = established();
        for t in [25_000u64, 50_000, 75_000, 100_000, 125_000] {
            s.handle(SessionEvent::Tick(t));
            s.handle(SessionEvent::Recv(Message::Keepalive));
        }
        // 135s elapsed but peer kept talking: still up.
        let a = s.handle(SessionEvent::Tick(135_000));
        assert_eq!(s.state(), State::Established);
        // Only keepalive sends, no teardown.
        assert!(a
            .iter()
            .all(|x| matches!(x, Action::Send(Message::Keepalive))));
    }

    #[test]
    fn notification_resets_session() {
        let mut s = established();
        let a = s.handle(SessionEvent::Recv(Message::Notification(NotificationMsg {
            code: 6,
            subcode: 1,
            data: vec![],
        })));
        assert!(a.contains(&Action::SessionDown { code: 6 }));
        assert_eq!(s.state(), State::Idle);
    }

    #[test]
    fn transport_loss_resets_session() {
        let mut s = established();
        let a = s.handle(SessionEvent::TransportDown);
        assert!(a.contains(&Action::SessionDown { code: 0 }));
        assert_eq!(s.state(), State::Idle);
        // Can restart.
        assert_eq!(s.handle(SessionEvent::ManualStart), vec![Action::Connect]);
    }

    #[test]
    fn unexpected_message_triggers_fsm_error() {
        let mut s = Session::new(SessionConfig::default());
        s.handle(SessionEvent::ManualStart);
        s.handle(SessionEvent::TransportUp);
        // UPDATE while in OpenSent: FSM error.
        let a = s.handle(SessionEvent::Recv(Message::Update(UpdateMsg::default())));
        assert!(matches!(
            a[0],
            Action::Send(Message::Notification(NotificationMsg { code: 5, .. }))
        ));
        assert_eq!(s.state(), State::Idle);
    }

    #[test]
    fn zero_hold_time_disables_timers() {
        let mut s = Session::new(SessionConfig {
            hold_time: 0,
            ..SessionConfig::default()
        });
        s.handle(SessionEvent::ManualStart);
        s.handle(SessionEvent::TransportUp);
        s.handle(SessionEvent::Recv(peer_open(65_001, 90)));
        s.handle(SessionEvent::Recv(Message::Keepalive));
        assert_eq!(s.hold_time(), 0);
        // No teardown no matter how long the silence.
        let a = s.handle(SessionEvent::Tick(10_000_000));
        assert!(a.is_empty());
        assert_eq!(s.state(), State::Established);
    }
}
