//! [`Pipe`]: an in-process byte link for the frame protocol.
//!
//! A pipe is one end of a duplex byte stream built from two
//! `std::sync::mpsc` channels. It implements `Read + Write` like a
//! `TcpStream`, so the coordinator and the node loop send and parse the
//! same frames over it — the same header checks, the same `send_frame`
//! byte accounting — with no socket underneath. Each write moves its bytes
//! as one message (a frame is one vectored write); a read drains the
//! current message before blocking for the next. Dropping an end closes
//! the stream as a socket close would: the peer's reads see end-of-stream
//! and its writes fail with `BrokenPipe`.

use std::io::{self, IoSlice, Read, Write};
use std::sync::mpsc::{self, Receiver, Sender};

/// One end of an in-process duplex byte stream.
pub struct Pipe {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
    /// The message being read, and how many of its bytes were consumed.
    pending: Vec<u8>,
    consumed: usize,
}

impl Pipe {
    /// A connected pair of ends: bytes written to one are read from the
    /// other, in both directions.
    pub fn pair() -> (Pipe, Pipe) {
        let (a_tx, b_rx) = mpsc::channel();
        let (b_tx, a_rx) = mpsc::channel();
        (Pipe::end(a_tx, a_rx), Pipe::end(b_tx, b_rx))
    }

    fn end(tx: Sender<Vec<u8>>, rx: Receiver<Vec<u8>>) -> Pipe {
        Pipe {
            tx,
            rx,
            pending: Vec::new(),
            consumed: 0,
        }
    }
}

impl Read for Pipe {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.consumed == self.pending.len() {
            match self.rx.recv() {
                Ok(message) => {
                    self.pending = message;
                    self.consumed = 0;
                }
                // The peer end is gone: end of stream.
                Err(_) => return Ok(0),
            }
        }
        let n = buf.len().min(self.pending.len() - self.consumed);
        buf[..n].copy_from_slice(&self.pending[self.consumed..self.consumed + n]);
        self.consumed += n;
        if self.consumed == self.pending.len() {
            // Free a drained message now rather than holding it until the
            // next one arrives.
            self.pending = Vec::new();
            self.consumed = 0;
        }
        Ok(n)
    }
}

impl Pipe {
    fn send(&mut self, message: Vec<u8>) -> io::Result<usize> {
        let n = message.len();
        // Empty messages are never sent: a reader would take one for
        // end-of-stream.
        if n > 0 {
            self.tx
                .send(message)
                .map_err(|_| io::Error::from(io::ErrorKind::BrokenPipe))?;
        }
        Ok(n)
    }
}

impl Write for Pipe {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.send(buf.to_vec())
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        let mut message = Vec::with_capacity(bufs.iter().map(|b| b.len()).sum());
        for buf in bufs {
            message.extend_from_slice(buf);
        }
        self.send(message)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{Frame, MsgType, NetError};

    #[test]
    fn frames_cross_in_both_directions() {
        let (mut a, mut b) = Pipe::pair();
        let data = Frame::data(MsgType::Reply, 3, 9, vec![1, 2], vec![7; 16]);
        data.write_to(&mut a).unwrap();
        Frame::control(MsgType::Ack, 1, 9).write_to(&mut a).unwrap();
        Frame::control(MsgType::Shutdown, 0, 0)
            .write_to(&mut b)
            .unwrap();
        let got = Frame::read_from(&mut b).unwrap();
        assert_eq!((got.msg_type, got.seq, got.job_id), (MsgType::Reply, 3, 9));
        assert_eq!((got.desc, got.body), (data.desc, data.body));
        assert_eq!(Frame::read_from(&mut b).unwrap().msg_type, MsgType::Ack);
        assert_eq!(
            Frame::read_from(&mut a).unwrap().msg_type,
            MsgType::Shutdown
        );
    }

    #[test]
    fn dropping_an_end_closes_the_stream() {
        let (mut a, b) = Pipe::pair();
        drop(b);
        let err = a.write_all(&[1, 2, 3]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        let err = Frame::read_from(&mut a).unwrap_err();
        assert!(
            matches!(err, NetError::Truncated { have: 0, .. }),
            "{err:?}"
        );
    }
}
