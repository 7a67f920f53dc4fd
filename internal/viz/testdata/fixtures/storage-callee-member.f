C     T is /B/ storage that callee F, called twice inside MAIN/10, declares
C     as W, and that H, reached through G, declares as V: privatizing T in
C     MAIN/10 privatizes W and V too, each named once.
      PROGRAM MAIN
      COMMON /B/ T(10)
      REAL Y(100)
      INTEGER I
      DO 10 I = 1, 100
        CALL F(I)
        CALL G(I)
        CALL F(I)
        Y(I) = T(1) + T(10)
10    CONTINUE
      WRITE(*,*) Y(5)
      END

      SUBROUTINE F(N)
      INTEGER N
      COMMON /B/ W(10)
      INTEGER J
      DO 30 J = 1, 10
        W(J) = N + J
30    CONTINUE
      END

      SUBROUTINE G(N)
      INTEGER N
      CALL H(N)
      END

      SUBROUTINE H(N)
      INTEGER N
      COMMON /B/ V(10)
      V(1) = N
      END
