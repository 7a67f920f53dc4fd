C     T is /B/ storage that callee F declares as X: the recurrence on T in
C     MAIN/10 is reported, traced and asserted by the name T.
      PROGRAM MAIN
      COMMON /B/ T(100)
      INTEGER I
      T(1) = 0
      DO 10 I = 2, 100
        T(I) = T(I-1) + 1
10    CONTINUE
      CALL F
      WRITE(*,*) T(100)
      END

      SUBROUTINE F
      COMMON /B/ X(100)
      INTEGER J
      DO 20 J = 1, 100
        X(J) = X(J) + 1
20    CONTINUE
      END
